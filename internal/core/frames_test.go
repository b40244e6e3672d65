package core

import (
	"reflect"
	"sync"
	"testing"

	"awakemis/internal/ldtmis"
	"awakemis/internal/misproto"
	"awakemis/internal/sim"
)

// dirty binds a machine, a stream and a continuation into a frame, as
// a window's Start does.
func dirty(s *ldtmis.Session, id int64) {
	var m sim.Machine
	var out sim.Outbox
	var rnd sim.Rand
	var state misproto.State
	m.Begin(&out, func() {
		s.Start(&m, &rnd, 64, 0, id, 4, ldtmis.VariantAwake, &state, func() {})
	})
}

// TestFramesOrder checks that the pool hands frames out in one order,
// which restarts once every frame taken has come back, and that a
// frame comes back cleared.
func TestFramesOrder(t *testing.T) {
	var f frames
	first := []*ldtmis.Session{f.get(), f.get(), f.get()}
	for i, s := range first {
		dirty(s, int64(i+1))
	}
	f.put(first[1])
	if s := f.get(); s == first[0] || s == first[1] || s == first[2] {
		t.Fatal("the pool handed out a frame before every frame taken came back")
	}
	f.put(first[2])
	f.put(first[0])
	f.put(f.all[3])
	for i := range first {
		s := f.get()
		if s != first[i] {
			t.Fatalf("take %d after the restart got another frame than the first time", i)
		}
		if !reflect.ValueOf(s).Elem().IsZero() {
			t.Fatalf("frame %d came back without being cleared", i)
		}
	}
	if len(f.all) != 4 {
		t.Errorf("the pool allocated %d frames, want 4", len(f.all))
	}
}

// TestFramesConcurrent takes and returns window frames from several
// goroutines at once, as OnWake calls sharded across the engine's
// worker pool do. Under -race it checks the pool's locking; it also
// checks that no frame has two holders at once and that every frame
// handed out is cleared.
func TestFramesConcurrent(t *testing.T) {
	const goroutines, takes = 8, 300
	var f frames
	var holders sync.Map // *ldtmis.Session → the goroutine holding it
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []*ldtmis.Session
			release := func() {
				for _, s := range held {
					holders.Delete(s)
					f.put(s)
				}
				held = held[:0]
			}
			for i := 0; i < takes; i++ {
				s := f.get()
				if other, taken := holders.LoadOrStore(s, g); taken {
					t.Errorf("goroutine %d took a frame goroutine %d holds", g, other)
					return
				}
				if !reflect.ValueOf(s).Elem().IsZero() {
					t.Errorf("goroutine %d took a frame that was not cleared", g)
					return
				}
				dirty(s, int64(i+1))
				held = append(held, s)
				if len(held) >= 1+i%3 { // hold up to three frames, then return them
					release()
				}
			}
			release()
		}()
	}
	wg.Wait()
	if f.taken != 0 || f.back != 0 {
		t.Errorf("every frame is back, but the pool counts %d taken and %d back", f.taken, f.back)
	}
}
