package core

import "github.com/oocsb/ibp/internal/table"

// Patterns returns the number of distinct patterns currently stored, the
// statistic the paper quotes per path length in §5.1 (meaningful for
// unbounded tables; -1 for bounded ones).
func (t *TwoLevel) Patterns() int {
	if t.exact != nil {
		return t.exact.Len()
	}
	if u, ok := t.tab.(*table.Unbounded64); ok {
		return u.Len()
	}
	return -1
}
