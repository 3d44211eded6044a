package faultinject

import (
	"math/rand"
	"testing"

	"pmtest/internal/pmem"
	"pmtest/internal/trace"
)

func TestClassRoundTrip(t *testing.T) {
	for _, c := range AllClasses() {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseClass("no-such-class"); err == nil {
		t.Error("ParseClass accepted garbage")
	}
	if Evict.IsBug() {
		t.Error("evict must not be a bug class")
	}
	for _, c := range []Class{DropFlush, DropFence, WeakenFence, TornStore, DelayFlush} {
		if !c.IsBug() {
			t.Errorf("%s must be a bug class", c)
		}
	}
}

func TestCensusMatchesDeviceStats(t *testing.T) {
	dev := pmem.New(1<<12, nil)
	hook := NewCensus(dev)
	dev.SetFaultHook(hook)
	buf := make([]byte, 24)
	for i := 0; i < 5; i++ {
		dev.Store(uint64(i)*64, buf)    // big store
		dev.Store64(uint64(i)*64+32, 7) // 8-byte store
		dev.CLWB(uint64(i)*64, 64)
		dev.SFence()
	}
	c := hook.Census()
	stores, flushes, fences := dev.Stats()
	if uint64(c.Stores) != stores || uint64(c.Flushes) != flushes || uint64(c.Fences) != fences {
		t.Fatalf("census %+v disagrees with device stats %d/%d/%d", c, stores, flushes, fences)
	}
	if c.BigStores != 5 {
		t.Fatalf("big stores = %d, want 5", c.BigStores)
	}
	if c.Sites(TornStore) != 5 || c.Sites(DropFlush) != 5 || c.Sites(DropFence) != 5 || c.Sites(Evict) != 10 {
		t.Fatalf("site counts wrong: %+v", c)
	}
}

// TestInjectorTargetsExactSite verifies that each class perturbs exactly
// the site-th occurrence of its primitive and nothing else.
func TestInjectorTargetsExactSite(t *testing.T) {
	run := func(class Class, site int) (*pmem.Device, *Injector, *trace.Recorder) {
		sink := &trace.Recorder{}
		dev := pmem.New(1<<12, sink)
		inj := NewInjector(dev, class, site, rand.New(rand.NewSource(9)))
		dev.SetFaultHook(inj)
		buf := make([]byte, 16)
		for i := 0; i < 3; i++ {
			dev.Store(uint64(i)*64, buf)
			dev.CLWB(uint64(i)*64, 16)
			dev.SFence()
		}
		return dev, inj, sink
	}

	// drop-flush site 1: exactly one clwb disappears from the trace.
	_, inj, sink := run(DropFlush, 1)
	if !inj.Injected() {
		t.Fatal("drop-flush not injected")
	}
	if n := countKind(sink.Ops, trace.KindFlush); n != 2 {
		t.Fatalf("drop-flush: %d flush ops, want 2", n)
	}

	// drop-fence site 2: the last fence disappears, leaving its window
	// dirty.
	dev, inj, sink := run(DropFence, 2)
	if !inj.Injected() {
		t.Fatal("drop-fence not injected")
	}
	if n := countKind(sink.Ops, trace.KindFence); n != 2 {
		t.Fatalf("drop-fence: %d fence ops, want 2", n)
	}
	if dev.DirtyLines() != 1 {
		t.Fatalf("dropped final fence left %d dirty lines, want 1", dev.DirtyLines())
	}

	// torn-store site 1: store 1 is recorded as its 8-byte prefix and a
	// deferred 8-byte tail lands after the next fence.
	dev, inj, sink = run(TornStore, 1)
	if !inj.Injected() {
		t.Fatal("torn-store not injected")
	}
	var sizes []uint64
	for _, op := range sink.Ops {
		if op.Kind == trace.KindWrite {
			sizes = append(sizes, op.Size)
		}
	}
	// stores: full(16), torn prefix(8), tail(8) after fence, full(16)
	want := []uint64{16, 8, 8, 16}
	if len(sizes) != len(want) {
		t.Fatalf("torn-store writes %v, want sizes %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("torn-store writes %v, want sizes %v", sizes, want)
		}
	}
	// The tail re-issue leaves its line dirty again (nothing flushes it).
	if dev.DirtyLines() != 1 {
		t.Fatalf("torn tail rescued: %d dirty lines, want 1", dev.DirtyLines())
	}

	// delay-flush site 0: the flush re-appears after the fence, so the
	// line misses the ordering point.
	dev, inj, sink = run(DelayFlush, 0)
	if !inj.Injected() {
		t.Fatal("delay-flush not injected")
	}
	idxFlush, idxFence := -1, -1
	for i, op := range sink.Ops {
		if op.Kind == trace.KindFlush && idxFlush < 0 {
			idxFlush = i
		}
		if op.Kind == trace.KindFence && idxFence < 0 {
			idxFence = i
		}
	}
	if idxFlush < idxFence {
		t.Fatalf("delayed flush at %d not after fence at %d", idxFlush, idxFence)
	}
	// The flush is deferred, not dropped: all three still appear (the
	// next op's fence then legitimately drains the late line).
	if n := countKind(sink.Ops, trace.KindFlush); n != 3 {
		t.Fatalf("delay-flush: %d flush ops, want 3", n)
	}
	_ = dev

	// weaken-fence site 1: every flush in fence 1's window dropped, the
	// fence itself survives.
	dev, inj, sink = run(WeakenFence, 1)
	if !inj.Injected() {
		t.Fatal("weaken-fence not injected")
	}
	if n := countKind(sink.Ops, trace.KindFence); n != 3 {
		t.Fatalf("weaken-fence: %d fences, want 3 (fence must survive)", n)
	}
	if n := countKind(sink.Ops, trace.KindFlush); n != 2 {
		t.Fatalf("weaken-fence: %d flushes, want 2", n)
	}
	if dev.DirtyLines() != 1 {
		t.Fatalf("weakened window drained: %d dirty, want 1", dev.DirtyLines())
	}

	// evict: at store site 1 the line of store 0 is still dirty, so it
	// is made durable early — no trace op, nothing lost.
	sink = &trace.Recorder{}
	dev = pmem.New(1<<12, sink)
	inj = NewInjector(dev, Evict, 1, rand.New(rand.NewSource(9)))
	dev.SetFaultHook(inj)
	buf := make([]byte, 16)
	for i := range buf {
		buf[i] = 0xAB
	}
	dev.Store(0, buf)
	dev.Store(64, buf)
	if !inj.Injected() {
		t.Fatal("evict not injected")
	}
	if len(sink.Ops) != 2 {
		t.Fatalf("evict perturbed the trace: %d ops, want 2", len(sink.Ops))
	}
	if dev.DirtyLines() != 1 {
		t.Fatalf("evict: %d dirty lines, want 1 (line 0 evicted, line 64 dirty)", dev.DirtyLines())
	}
	if img := dev.Image(); img[0] != 0xAB || img[15] != 0xAB || img[64] != 0 {
		t.Fatalf("eviction durability wrong: img[0]=%#x img[64]=%#x", img[0], img[64])
	}
}

func countKind(ops []trace.Op, k trace.Kind) int {
	n := 0
	for _, op := range ops {
		if op.Kind == k {
			n++
		}
	}
	return n
}

func TestExplore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Exhaustive at or below budget.
	s := Explore(DropFlush, 4, 8, rng)
	if len(s) != 4 {
		t.Fatalf("exhaustive explore returned %d schedules, want 4", len(s))
	}
	for i, sc := range s {
		if sc.Site != i || sc.Class != DropFlush {
			t.Fatalf("schedule %d = %+v", i, sc)
		}
	}
	// Random distinct beyond budget, deterministic per seed.
	a := Explore(DropFence, 100, 6, rand.New(rand.NewSource(7)))
	b := Explore(DropFence, 100, 6, rand.New(rand.NewSource(7)))
	if len(a) != 6 {
		t.Fatalf("budgeted explore returned %d schedules, want 6", len(a))
	}
	seen := map[int]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("explore not deterministic: %+v vs %+v", a, b)
		}
		if seen[a[i].Site] {
			t.Fatalf("duplicate site %d in %+v", a[i].Site, a)
		}
		seen[a[i].Site] = true
		if i > 0 && a[i].Site < a[i-1].Site {
			t.Fatalf("sites not sorted: %+v", a)
		}
	}
	if Explore(DropFlush, 0, 8, rng) != nil {
		t.Fatal("explore of zero sites must be empty")
	}
}

func TestSubSeedStable(t *testing.T) {
	a := subSeed(42, "ctree", "drop-flush")
	b := subSeed(42, "ctree", "drop-flush")
	c := subSeed(42, "ctree", "drop-fence")
	d := subSeed(43, "ctree", "drop-flush")
	if a != b {
		t.Fatal("subSeed not stable")
	}
	if a == c || a == d {
		t.Fatal("subSeed collisions across parts/seeds")
	}
}
