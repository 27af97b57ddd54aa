package recycle

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestListHandsEachEntryToOneOwner checks, from several goroutines at once,
// that an entry is never handed out while another owner still holds it and
// that the list never holds more entries than were live at once.
func TestListHandsEachEntryToOneOwner(t *testing.T) {
	const workers, rounds = 8, 2000
	var l List[*atomic.Int32]
	var created atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v := l.Get()
				if v == nil {
					v = new(atomic.Int32)
					created.Add(1)
				}
				if v.Add(1) != 1 {
					t.Error("an entry was handed to two owners at once")
				}
				v.Add(-1)
				l.Put(v)
			}
		}()
	}
	wg.Wait()
	if n := len(l.free); n != int(created.Load()) || n > workers {
		t.Errorf("list holds %d entries after %d were created by %d workers", n, created.Load(), workers)
	}
}

func TestSliceReadsLikeMake(t *testing.T) {
	s := Slice([]int{1, 2, 3, 4}, 3)
	if len(s) != 3 || s[0] != 0 || s[1] != 0 || s[2] != 0 {
		t.Errorf("Slice reused %v, want three zeros", s)
	}
	if s := Slice(s, 5); len(s) != 5 || cap(s) != 5 {
		t.Errorf("Slice grew to len %d cap %d, want a fresh 5", len(s), cap(s))
	}
}
