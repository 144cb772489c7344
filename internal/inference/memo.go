package inference

import "sync"

// memo memoizes fn per key for concurrent callers: each key's value is
// computed once, by the first caller that misses it, and callers of that
// key meanwhile wait for it rather than computing it again. A pricing timer
// shared by parallel cells so simulates each size once, which keeps a
// sweep's work, and its engine event counts, the same at any GOMAXPROCS.
// Set fn before the first get; a memo must not be copied after that.
type memo[K comparable, V any] struct {
	fn      func(K) V
	mu      sync.Mutex
	done    map[K]V             // the computed values
	pending map[K]*memoEntry[V] // the keys being computed
}

// memoEntry is a key's value while it is computed, set once.
type memoEntry[V any] struct {
	once sync.Once
	v    V
}

// get returns fn(k), computing it on the first call for k. A computed key
// costs one map lookup under the lock and allocates nothing.
func (m *memo[K, V]) get(k K) V {
	m.mu.Lock()
	v, ok := m.done[k]
	m.mu.Unlock()
	if ok {
		return v
	}
	return m.miss(k)
}

// miss computes k's value once, however many callers miss it at the same
// time, and publishes it to done.
func (m *memo[K, V]) miss(k K) V {
	m.mu.Lock()
	e := m.pending[k]
	if e == nil {
		if v, ok := m.done[k]; ok { // published since get looked
			m.mu.Unlock()
			return v
		}
		if m.pending == nil {
			m.done, m.pending = make(map[K]V), make(map[K]*memoEntry[V])
		}
		e = new(memoEntry[V])
		m.pending[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		e.v = m.fn(k)
		m.mu.Lock()
		m.done[k] = e.v
		delete(m.pending, k)
		m.mu.Unlock()
	})
	return e.v
}
