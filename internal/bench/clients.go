package bench

import (
	"fmt"
	"sync"
	"sync/atomic"

	"holistic/internal/workload"
)

// runQueries drives a query sequence through count — an executor's Count
// terminal — with the given number of concurrent closed-loop clients
// (Section 5.8 varies this from 1 to 32), verifying nothing: pure load
// generation. Each client's queries count themselves busy inside the
// executor, so the clients are plain goroutines, not a column.ForChunks
// fan-out. attrName maps a workload attribute index to a column name. It
// returns the per-query counts in sequence order (so correctness checks
// remain possible) and the first error encountered; clients stop taking
// queries once one has failed.
func runQueries(count func(attr string, lo, hi int64) (int, error), queries []workload.Query, attrName func(int) string, clients int) ([]int, error) {
	counts := make([]int, len(queries))
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		failed   atomic.Bool
		once     sync.Once
		firstErr error
	)
	for c := 0; c < max(clients, 1); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				q := queries[i]
				n, err := count(attrName(q.Attr), q.Lo, q.Hi)
				if err != nil {
					once.Do(func() { firstErr = fmt.Errorf("query %d: %w", i, err) })
					failed.Store(true)
					return
				}
				counts[i] = n
			}
		}()
	}
	wg.Wait()
	return counts, firstErr
}
