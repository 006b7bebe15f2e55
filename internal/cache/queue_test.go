package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// allocSized allocates an arena entry with the given key and size.
func allocSized(a *Arena, key uint64, size int64) Handle {
	h := a.Alloc()
	e := a.At(h)
	e.Key = key
	e.Size = size
	return h
}

func keysFrontToBack(q *Queue) []uint64 {
	var out []uint64
	for h := q.Front(); h != None; h = q.Next(h) {
		out = append(out, q.a.At(h).Key)
	}
	return out
}

// keysBackToFront walks the prev links, which no exported method reads,
// so every order check that pairs it with keysFrontToBack checks both
// link directions.
func keysBackToFront(q *Queue) []uint64 {
	var out []uint64
	for h := q.Back(); h != None; h = q.a.At(h).prev {
		out = append(out, q.a.At(h).Key)
	}
	return out
}

func TestQueuePushFrontOrder(t *testing.T) {
	var a Arena
	q := a.NewQueue()
	for i := uint64(1); i <= 3; i++ {
		q.PushFront(allocSized(&a, i, 1))
	}
	got := keysFrontToBack(&q)
	want := []uint64{3, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if q.Len() != 3 || q.Bytes() != 3 {
		t.Fatalf("Len=%d Bytes=%d, want 3,3", q.Len(), q.Bytes())
	}
}

func TestQueuePushBackOrder(t *testing.T) {
	var a Arena
	q := a.NewQueue()
	for i := uint64(1); i <= 3; i++ {
		q.PushBack(allocSized(&a, i, 2))
	}
	got := keysFrontToBack(&q)
	want := []uint64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if q.Bytes() != 6 {
		t.Fatalf("Bytes=%d, want 6", q.Bytes())
	}
}

func TestQueueRemoveMiddle(t *testing.T) {
	var a Arena
	q := a.NewQueue()
	hs := make([]Handle, 5)
	for i := range hs {
		hs[i] = allocSized(&a, uint64(i), 1)
		q.PushBack(hs[i])
	}
	q.Remove(hs[2])
	if e := a.At(hs[2]); e.owner != 0 || e.prev != None || e.next != None {
		t.Fatalf("removed entry still linked: owner %d, prev %d, next %d", e.owner, e.prev, e.next)
	}
	got := keysFrontToBack(&q)
	want := []uint64{0, 1, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	back := keysBackToFront(&q)
	for i := range want {
		if back[len(back)-1-i] != want[i] {
			t.Fatalf("reverse order broken: %v", back)
		}
	}
}

func TestQueueRemoveEnds(t *testing.T) {
	var ar Arena
	q := ar.NewQueue()
	a := allocSized(&ar, 1, 1)
	b := allocSized(&ar, 2, 1)
	q.PushBack(a)
	q.PushBack(b)
	q.Remove(a)
	if q.Front() != b || q.Back() != b {
		t.Fatal("removing head broke ends")
	}
	q.Remove(b)
	if q.Front() != None || q.Back() != None || q.Len() != 0 || q.Bytes() != 0 {
		t.Fatal("queue not empty after removing all")
	}
}

func TestQueueMoveToFrontAndBack(t *testing.T) {
	var a Arena
	q := a.NewQueue()
	hs := make([]Handle, 3)
	for i := range hs {
		hs[i] = allocSized(&a, uint64(i), 1)
		q.PushBack(hs[i])
	}
	q.MoveToFront(hs[2])
	if a.At(q.Front()).Key != 2 {
		t.Fatalf("front = %d, want 2", a.At(q.Front()).Key)
	}
	q.MoveToBack(hs[2])
	if a.At(q.Back()).Key != 2 {
		t.Fatalf("back = %d, want 2", a.At(q.Back()).Key)
	}
	// Moving the element already at the target end is a no-op.
	q.MoveToBack(q.Back())
	q.MoveToFront(q.Front())
	if q.Len() != 3 {
		t.Fatalf("Len=%d, want 3", q.Len())
	}
}

func TestQueueMoveTowardFront(t *testing.T) {
	var a Arena
	q := a.NewQueue()
	hs := make([]Handle, 3)
	for i := range hs {
		hs[i] = allocSized(&a, uint64(i), 1)
		q.PushBack(hs[i])
	}
	q.MoveTowardFront(hs[2]) // 0,1,2 -> 0,2,1
	got := keysFrontToBack(&q)
	want := []uint64{0, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	q.MoveTowardFront(hs[2]) // -> 2,0,1
	q.MoveTowardFront(hs[2]) // already front: no-op
	if a.At(q.Front()).Key != 2 {
		t.Fatalf("front = %d, want 2", a.At(q.Front()).Key)
	}
}

// TestQueueInsertBeforeAfter: InsertBefore links mid-queue and at the
// head; an entry goes after the tail with PushBack.
func TestQueueInsertBeforeAfter(t *testing.T) {
	var ar Arena
	q := ar.NewQueue()
	a := allocSized(&ar, 1, 1)
	c := allocSized(&ar, 3, 1)
	q.PushBack(a)
	q.PushBack(c)
	b := allocSized(&ar, 2, 1)
	q.InsertBefore(b, c)
	got := keysFrontToBack(&q)
	want := []uint64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	e := allocSized(&ar, 0, 1)
	q.InsertBefore(e, a)
	if q.Front() != e {
		t.Fatal("InsertBefore head entry did not become front")
	}
}

func TestQueuePanicsOnMisuse(t *testing.T) {
	var a Arena
	q := a.NewQueue()
	q2 := a.NewQueue()
	h := allocSized(&a, 1, 1)
	q.PushBack(h)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("double PushBack", func() { q.PushBack(h) })
	mustPanic("double PushFront", func() { q.PushFront(h) })
	mustPanic("Remove from wrong queue", func() { q2.Remove(h) })
	mustPanic("Free while in queue", func() { a.Free(h) })
	q.Remove(h)
	a.Free(h)
	mustPanic("double Free", func() { a.Free(h) })
	if handleChecks { // scipdebug: At validates every handle
		mustPanic("At of freed entry", func() { a.At(h) })
		mustPanic("At of never-allocated handle", func() { a.At(h + 1) })
	}
	mustPanic("evict empty", func() { NewLRU(10).evictOne() })
}

// TestQueueRandomOpsInvariant drives random operations and checks the
// byte/length invariants and bidirectional consistency after each step.
func TestQueueRandomOpsInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a Arena
	q := a.NewQueue()
	live := map[uint64]Handle{}
	var wantBytes int64
	next := uint64(0)
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(4); {
		case op == 0 || len(live) == 0:
			h := allocSized(&a, next, int64(rng.Intn(100)+1))
			next++
			if rng.Intn(2) == 0 {
				q.PushFront(h)
			} else {
				q.PushBack(h)
			}
			live[a.At(h).Key] = h
			wantBytes += a.At(h).Size
		case op == 1:
			for k, h := range live {
				wantBytes -= a.At(h).Size
				q.Remove(h)
				a.Free(h)
				delete(live, k)
				break
			}
		case op == 2:
			for _, h := range live {
				q.MoveToFront(h)
				break
			}
		default:
			for _, h := range live {
				q.MoveTowardFront(h)
				break
			}
		}
		if q.Len() != len(live) {
			t.Fatalf("step %d: Len=%d want %d", step, q.Len(), len(live))
		}
		if q.Bytes() != wantBytes {
			t.Fatalf("step %d: Bytes=%d want %d", step, q.Bytes(), wantBytes)
		}
	}
	fw := keysFrontToBack(&q)
	bw := keysBackToFront(&q)
	if len(fw) != len(bw) {
		t.Fatalf("asymmetric traversal: %d vs %d", len(fw), len(bw))
	}
	for i := range fw {
		if fw[i] != bw[len(bw)-1-i] {
			t.Fatal("forward and backward traversals disagree")
		}
	}
}

// Property: for any sequence of front/back pushes, the concatenation of
// reversed-front-pushes and back-pushes equals the queue order.
func TestQueueOrderProperty(t *testing.T) {
	f := func(ops []bool) bool {
		var a Arena
		q := a.NewQueue()
		var fronts, backs []uint64
		for i, front := range ops {
			k := uint64(i)
			h := allocSized(&a, k, 1)
			if front {
				q.PushFront(h)
				fronts = append(fronts, k)
			} else {
				q.PushBack(h)
				backs = append(backs, k)
			}
		}
		want := make([]uint64, 0, len(ops))
		for i := len(fronts) - 1; i >= 0; i-- {
			want = append(want, fronts[i])
		}
		want = append(want, backs...)
		got := keysFrontToBack(&q)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
