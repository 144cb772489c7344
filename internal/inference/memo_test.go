package inference

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoComputesEachKeyOnce has 8 goroutines request the same keys at
// once: the injected measurement must run exactly once per key, and every
// caller must read its value.
func TestMemoComputesEachKeyOnce(t *testing.T) {
	const goroutines, keys = 8, 64
	var runs [keys]atomic.Int32
	start := make(chan struct{})
	m := &memo[int, int]{fn: func(k int) int {
		runs[k].Add(1)
		return 3 * k
	}}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < keys; i++ {
				k := (i + g) % keys // callers miss the same keys in different orders
				if v := m.get(k); v != 3*k {
					t.Errorf("get(%d) = %d, want %d", k, v, 3*k)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for k := range runs {
		if n := runs[k].Load(); n != 1 {
			t.Errorf("key %d measured %d times, want 1", k, n)
		}
	}
}
