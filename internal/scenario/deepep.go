package scenario

// Figure 13: DeepEP expert-parallel dispatch (FP8) and combine (BF16)
// bandwidth on two H100 nodes (16 GPUs, DeepSeek-V3 settings), comparing
// the NVSHMEM-IBGDA stack with MSCCL++ PortChannels. Run it with
// `paperbench -run fig13`; cmd/deepepbench prices single ad-hoc batches.

import (
	"fmt"

	"mscclpp/internal/benchkit"
	"mscclpp/internal/moe"
)

func fig13(r *Report) error {
	cfg := moe.DefaultConfig()
	r.Println("Figure 13: DeepEP on two H100 nodes (16 GPUs, hidden 7168, top-k 8, 256 experts)")
	r.Printf("%-8s | %12s %12s | %12s %12s\n", "tokens",
		"disp NVSHMEM", "disp MSCCL++", "comb NVSHMEM", "comb MSCCL++")
	var tokenSizes []int
	for tokens := 128; tokens <= 65536; tokens *= 2 {
		tokenSizes = append(tokenSizes, tokens)
	}
	// Each (tokens, phase, transport) cell is an independent simulation with
	// its own engine; fan the whole grid out and print rows in order.
	phases := []string{"dispatch", "combine"}
	transports := []moe.Transport{moe.TransportIBGDA, moe.TransportMSCCLPP}
	cells := len(phases) * len(transports)
	bw := make([]float64, len(tokenSizes)*cells)
	err := benchkit.Parallel(len(bw), func(idx int) error {
		row, cell := idx/cells, idx%cells
		phase, tr := phases[cell/len(transports)], transports[cell%len(transports)]
		e, err := moe.New(moe.Paper13Env(), cfg, tr)
		if err != nil {
			return err
		}
		var res moe.Result
		if phase == "dispatch" {
			res, err = e.Dispatch(tokenSizes[row])
		} else {
			res, err = e.Combine(tokenSizes[row])
		}
		if err != nil {
			return err
		}
		bw[idx] = res.AlgoBWGBs
		return nil
	})
	if err != nil {
		return err
	}
	labels := []string{"dispatch nvshmem", "dispatch mscclpp", "combine nvshmem", "combine mscclpp"}
	for i, tokens := range tokenSizes {
		row := bw[i*cells : (i+1)*cells]
		r.Printf("%-8d | %9.1f GB/s %9.1f GB/s | %9.1f GB/s %9.1f GB/s\n",
			tokens, row[0], row[1], row[2], row[3])
		for c, label := range labels {
			r.Metric(fmt.Sprintf("%s tokens=%d", label, tokens), "GB/s", row[c])
		}
	}
	r.Println("(expected: curves rise and saturate near the 48.94 GB/s NIC rate;")
	r.Println(" MSCCL++ CPU-proxy RDMA shows no noticeable difference vs IBGDA)")
	return nil
}
