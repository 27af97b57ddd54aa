// Package recycle hands the dense per-node memory of a finished tracking
// cell to the next cell on the process (DESIGN.md §10, cell-level
// recycling).
package recycle

import "sync"

// List is a mutex-guarded free list of released entries of one kind. Every
// Get takes an entry when there is one, so a list never holds more entries
// than were live at once. The zero value is empty and ready to use.
type List[T any] struct {
	mu   sync.Mutex
	free []T
}

// Get removes and returns the most recently released entry, or the zero T
// when the list is empty.
func (l *List[T]) Get() T {
	l.mu.Lock()
	defer l.mu.Unlock()
	var v T
	if n := len(l.free); n > 0 {
		v, l.free[n-1] = l.free[n-1], v
		l.free = l.free[:n-1]
	}
	return v
}

// Put releases v for a later Get; the caller must not touch v's memory
// afterwards.
func (l *List[T]) Put(v T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}

// Slice returns s resliced to length n and cleared when its capacity
// allows, and a fresh slice otherwise: either way, exactly what make
// returns.
func Slice[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}
