package pager

import (
	"errors"
	"os"
	"sync"
	"testing"

	"mxtasking/internal/faultfs"
	"mxtasking/internal/mxtask"
)

func newRuntime(workers int) *mxtask.Runtime {
	rt := mxtask.New(mxtask.Config{
		Workers:          workers,
		PrefetchDistance: 2,
	})
	rt.Start()
	return rt
}

func newPager(t *testing.T, rt *mxtask.Runtime, pageBytes, frames int) (*Pager, *faultfs.FaultFS) {
	t.Helper()
	fs := faultfs.NewMem(1)
	pg, err := Open(rt, Config{Path: "/pg/pages", FS: fs, PageBytes: pageBytes, PoolFrames: frames})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return pg, fs
}

// storeSync / loadSync drive the task API synchronously for tests.
func storeSync(t *testing.T, rt *mxtask.Runtime, pg *Pager, key, value uint64) uint64 {
	t.Helper()
	var (
		wg  sync.WaitGroup
		ref uint64
		err error
	)
	wg.Add(1)
	pg.Store(nil, key, value, func(_ *mxtask.Context, r uint64, e error) {
		ref, err = r, e
		wg.Done()
	})
	wg.Wait()
	if err != nil {
		t.Fatalf("Store(%d, %d): %v", key, value, err)
	}
	return ref
}

func loadSync(t *testing.T, rt *mxtask.Runtime, pg *Pager, ref, key uint64) (uint64, bool) {
	t.Helper()
	var (
		wg  sync.WaitGroup
		v   uint64
		ok  bool
		err error
	)
	wg.Add(1)
	pg.Load(nil, ref, key, func(_ *mxtask.Context, value uint64, o bool, e error) {
		v, ok, err = value, o, e
		wg.Done()
	})
	wg.Wait()
	if err != nil {
		t.Fatalf("Load(%#x, %d): %v", ref, key, err)
	}
	return v, ok
}

func freeSync(rt *mxtask.Runtime, pg *Pager, ref uint64) {
	pg.Free(nil, ref)
	rt.Drain()
}

func TestSlotsPerPage(t *testing.T) {
	cases := []struct{ bytes, want int }{
		{0, 0}, {63, 0}, {64, 2}, {128, 6}, {4096, 252},
	}
	for _, c := range cases {
		if got := SlotsPerPage(c.bytes); got != c.want {
			t.Errorf("SlotsPerPage(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
	// Whatever the count, header + bitmap + slots must fit.
	for _, b := range []int{64, 100, 128, 256, 4096, 1 << 20} {
		n := SlotsPerPage(b)
		if need := headerBytes + (n+7)/8 + n*SlotBytes; need > b {
			t.Errorf("SlotsPerPage(%d) = %d slots needing %d bytes", b, n, need)
		}
		// And one more slot must not fit (no wasted capacity), unless
		// capped by the slot-index width.
		if n < maxSlots {
			if need := headerBytes + (n+1+7)/8 + (n+1)*SlotBytes; need <= b {
				t.Errorf("SlotsPerPage(%d) = %d but %d slots also fit", b, n, n+1)
			}
		}
	}
}

func TestPageCodecRoundTrip(t *testing.T) {
	const pageBytes = 256
	p := NewPage(7, SlotsPerPage(pageBytes))
	p.Set(0, 100, 200)
	p.Set(3, ^uint64(0), 1)
	p.Set(p.Cap()-1, 42, 43)
	p.Clear(3)
	buf := make([]byte, pageBytes)
	p.Encode(buf)
	got, err := DecodePage(buf, 7)
	if err != nil {
		t.Fatalf("DecodePage: %v", err)
	}
	if got.Used() != 2 {
		t.Fatalf("Used = %d, want 2", got.Used())
	}
	if s, ok := got.Slot(0); !ok || s != (Slot{100, 200}) {
		t.Fatalf("slot 0 = %+v, %v", s, ok)
	}
	if _, ok := got.Slot(3); ok {
		t.Fatal("cleared slot 3 still occupied after round trip")
	}
	if s, ok := got.Slot(got.Cap() - 1); !ok || s != (Slot{42, 43}) {
		t.Fatalf("last slot = %+v, %v", s, ok)
	}
}

func TestPageCodecRejectsCorruption(t *testing.T) {
	const pageBytes = 128
	p := NewPage(3, SlotsPerPage(pageBytes))
	p.Set(1, 11, 22)
	good := make([]byte, pageBytes)
	p.Encode(good)

	flip := func(off int) []byte {
		b := make([]byte, len(good))
		copy(b, good)
		b[off] ^= 0xFF
		return b
	}
	cases := map[string][]byte{
		"magic":    flip(0),
		"version":  flip(4),
		"pageID":   flip(8),
		"used":     flip(16),
		"crc":      flip(20),
		"bitmap":   flip(headerBytes),
		"slotByte": flip(headerBytes + 1 + SlotBytes),
	}
	for name, buf := range cases {
		if _, err := DecodePage(buf, 3); !errors.Is(err, ErrCorruptPage) {
			t.Errorf("%s corruption: err = %v, want ErrCorruptPage", name, err)
		}
	}
	// Wrong expected ID on an otherwise valid image.
	if _, err := DecodePage(good, 4); !errors.Is(err, ErrCorruptPage) {
		t.Errorf("wrong wantID: err = %v, want ErrCorruptPage", err)
	}
	if _, err := DecodePage(good[:32], 3); !errors.Is(err, ErrCorruptPage) {
		t.Errorf("undersized image: err = %v, want ErrCorruptPage", err)
	}
}

func TestRefEncoding(t *testing.T) {
	cases := []struct {
		page uint64
		slot int
	}{{0, 0}, {1, 65535}, {maxPageID, 1}, {123456, 789}}
	for _, c := range cases {
		ref := MakeRef(c.page, c.slot)
		if !IsRef(ref) {
			t.Errorf("MakeRef(%d,%d) not tagged", c.page, c.slot)
		}
		p, s := SplitRef(ref)
		if p != c.page || s != c.slot {
			t.Errorf("SplitRef(MakeRef(%d,%d)) = (%d,%d)", c.page, c.slot, p, s)
		}
	}
	if IsRef(1 << 62) {
		t.Error("untagged word classified as ref")
	}
}

func TestPagerStoreLoadEvict(t *testing.T) {
	rt := newRuntime(2)
	defer rt.Stop()
	// Tiny pool: 2 frames, 6-slot pages — heavy eviction by design.
	pg, _ := newPager(t, rt, 128, 2)
	defer pg.Close()

	const n = 100
	refs := make(map[uint64]uint64, n)
	for k := uint64(0); k < n; k++ {
		refs[k] = storeSync(t, rt, pg, k, k*3+1)
	}
	st := pg.Stats()
	if st.Pages < n/6 {
		t.Fatalf("Pages = %d, want at least %d", st.Pages, n/6)
	}
	if st.Evictions == 0 || st.Writebacks == 0 {
		t.Fatalf("no eviction pressure: %+v", st)
	}
	if st.Resident > 2 {
		t.Fatalf("Resident = %d exceeds pool", st.Resident)
	}
	for k := uint64(0); k < n; k++ {
		v, ok := loadSync(t, rt, pg, refs[k], k)
		if !ok || v != k*3+1 {
			t.Fatalf("Load(%d) = (%d, %v), want (%d, true)", k, v, ok, k*3+1)
		}
	}
	st = pg.Stats()
	if st.Misses == 0 || st.Loads == 0 {
		t.Fatalf("reload produced no misses: %+v", st)
	}
	// In-memory loads are sub-microsecond, so the percentile may be 0;
	// it only must never exceed p99.
	if st.LoadP50Micros > st.LoadP99Micros {
		t.Fatalf("p50 %dus > p99 %dus", st.LoadP50Micros, st.LoadP99Micros)
	}
}

func TestPagerSlotValidation(t *testing.T) {
	rt := newRuntime(1)
	defer rt.Stop()
	pg, _ := newPager(t, rt, 128, 2)
	defer pg.Close()

	ref := storeSync(t, rt, pg, 5, 500)
	freeSync(rt, pg, ref)
	// Freed slot: the stale ref must miss, not return garbage.
	if v, ok := loadSync(t, rt, pg, ref, 5); ok {
		t.Fatalf("load of freed slot returned (%d, true)", v)
	}
	// Recycle the slot for another key: still a miss for the old key.
	ref2 := storeSync(t, rt, pg, 9, 900)
	if ref2 != ref {
		t.Fatalf("free list did not recycle slot: %#x vs %#x", ref2, ref)
	}
	if v, ok := loadSync(t, rt, pg, ref, 5); ok {
		t.Fatalf("stale ref for key 5 resolved to (%d, true) after recycle", v)
	}
	// Same slot, same key: self-validation accepts the newer record.
	ref3 := storeSync(t, rt, pg, 9, 901)
	_ = ref3
	if v, ok := loadSync(t, rt, pg, ref, 9); !ok || v != 900 {
		t.Fatalf("recycled slot for key 9 = (%d, %v)", v, ok)
	}
}

func TestPagerBatch(t *testing.T) {
	rt := newRuntime(2)
	defer rt.Stop()
	pg, _ := newPager(t, rt, 128, 2)
	defer pg.Close()

	pairs := make([]Slot, 40)
	for i := range pairs {
		pairs[i] = Slot{Key: uint64(i), Value: uint64(i) * 7}
	}
	var (
		wg   sync.WaitGroup
		refs []uint64
	)
	wg.Add(1)
	pg.StoreBatch(nil, pairs, func(_ *mxtask.Context, r []uint64, err error) {
		if err != nil {
			t.Errorf("StoreBatch: %v", err)
		}
		refs = r
		wg.Done()
	})
	wg.Wait()
	if len(refs) != len(pairs) {
		t.Fatalf("got %d refs", len(refs))
	}

	keys := make([]uint64, len(pairs))
	for i := range pairs {
		keys[i] = pairs[i].Key
	}
	wg.Add(1)
	pg.LoadBatch(nil, refs, keys, func(_ *mxtask.Context, values []uint64, oks []bool, err error) {
		defer wg.Done()
		if err != nil {
			t.Errorf("LoadBatch: %v", err)
			return
		}
		for i := range values {
			if !oks[i] || values[i] != keys[i]*7 {
				t.Errorf("batch load %d = (%d, %v)", i, values[i], oks[i])
			}
		}
	})
	wg.Wait()
}

func TestPagerPinBlocksEviction(t *testing.T) {
	rt := newRuntime(1)
	defer rt.Stop()
	pg, _ := newPager(t, rt, 128, 2)
	defer pg.Close()

	// Fill two pages so both frames are occupied.
	var firstRef uint64
	for k := uint64(0); k < 12; k++ {
		r := storeSync(t, rt, pg, k, k+1000)
		if k == 0 {
			firstRef = r
		}
	}
	pageID, _ := SplitRef(firstRef)

	var (
		wg   sync.WaitGroup
		pref *PageRef
	)
	wg.Add(1)
	pg.Pin(nil, pageID, func(_ *mxtask.Context, r *PageRef, err error) {
		if err != nil {
			t.Errorf("Pin: %v", err)
		}
		pref = r
		wg.Done()
	})
	wg.Wait()
	if pref == nil {
		t.Fatal("no PageRef")
	}
	if pref.PageID() != pageID || pref.Page().ID != pageID {
		t.Fatalf("PageRef page = %d, want %d", pref.Page().ID, pageID)
	}

	// Churn more pages than the pool holds: the pinned page must survive.
	for k := uint64(100); k < 160; k++ {
		storeSync(t, rt, pg, k, k)
	}
	if pref.Page() == nil || pref.Page().ID != pageID {
		t.Fatal("pinned frame was recycled under churn")
	}
	pg.Unpin(nil, pref)
	rt.Drain()

	// With 1 of 2 frames pinned, churn still works through the other.
	// Pin the second resident page too and a store must fail ErrNoFrames
	// once it needs a frame that cannot be freed.
}

func TestPagerAllFramesPinned(t *testing.T) {
	rt := newRuntime(1)
	defer rt.Stop()
	pg, _ := newPager(t, rt, 128, 1)
	defer pg.Close()

	storeSync(t, rt, pg, 1, 10)
	var pref *PageRef
	var wg sync.WaitGroup
	wg.Add(1)
	pg.Pin(nil, 0, func(_ *mxtask.Context, r *PageRef, err error) {
		if err != nil {
			t.Errorf("Pin: %v", err)
		}
		pref = r
		wg.Done()
	})
	wg.Wait()

	// Force a page fault with every frame pinned: typed error, no panic.
	// Filling page 0 (6 slots) forces a new page and a victim search.
	for k := uint64(2); k <= 6; k++ {
		storeSync(t, rt, pg, k, k)
	}
	var gotErr error
	wg.Add(1)
	pg.Store(nil, 7, 7, func(_ *mxtask.Context, _ uint64, err error) {
		gotErr = err
		wg.Done()
	})
	wg.Wait()
	if !errors.Is(gotErr, ErrNoFrames) {
		t.Fatalf("store with all frames pinned: %v, want ErrNoFrames", gotErr)
	}
	pg.Unpin(nil, pref)
	rt.Drain()
	storeSync(t, rt, pg, 7, 7)
}

func TestPagerTouchPrefetches(t *testing.T) {
	rt := newRuntime(2)
	defer rt.Stop()
	pg, _ := newPager(t, rt, 128, 4)
	defer pg.Close()

	refs := make([]uint64, 0, 60)
	for k := uint64(0); k < 60; k++ {
		refs = append(refs, storeSync(t, rt, pg, k, k))
	}
	// Evict page 0 by churning, then touch it back in.
	pageID, _ := SplitRef(refs[0])
	pg.Touch(nil, pageID)
	rt.Drain()
	before := pg.Stats()
	if before.Touches == 0 {
		t.Fatal("touch not counted")
	}
	// The touched page is now resident: the load that follows is a hit.
	if _, ok := loadSync(t, rt, pg, refs[0], 0); !ok {
		t.Fatal("load after touch failed")
	}
	after := pg.Stats()
	if after.Hits <= before.Hits {
		t.Fatalf("load after touch was not a pool hit (hits %d -> %d)", before.Hits, after.Hits)
	}
	if after.Misses != before.Misses {
		t.Fatalf("load after touch missed (misses %d -> %d)", before.Misses, after.Misses)
	}
}

func TestPagerCorruptFileLoad(t *testing.T) {
	rt := newRuntime(1)
	defer rt.Stop()
	fs := faultfs.NewMem(1)
	pg, err := Open(rt, Config{Path: "/pg/pages", FS: fs, PageBytes: 128, PoolFrames: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()

	// Two pages' worth of data so page 0 can be evicted (written back).
	refs := make([]uint64, 0, 12)
	for k := uint64(0); k < 12; k++ {
		refs = append(refs, storeSync(t, rt, pg, k, k+7))
	}
	// Push page 0 out and smash its on-file image behind the pager's back.
	for k := uint64(100); k < 130; k++ {
		storeSync(t, rt, pg, k, k)
	}
	raw, err := fs.OpenRandom("/pg/pages", os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.WriteAt([]byte{0xDE, 0xAD, 0xBE, 0xEF}, 40); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	var gotErr error
	var wg sync.WaitGroup
	wg.Add(1)
	pg.Load(nil, refs[0], 0, func(_ *mxtask.Context, _ uint64, _ bool, err error) {
		gotErr = err
		wg.Done()
	})
	wg.Wait()
	if !errors.Is(gotErr, ErrCorruptPage) {
		t.Fatalf("load of smashed page: %v, want ErrCorruptPage", gotErr)
	}
}

func TestPagerFreeRecyclesPages(t *testing.T) {
	rt := newRuntime(1)
	defer rt.Stop()
	pg, _ := newPager(t, rt, 128, 3)
	defer pg.Close()

	refs := make([]uint64, 0, 30)
	for k := uint64(0); k < 30; k++ {
		refs = append(refs, storeSync(t, rt, pg, k, k))
	}
	pagesBefore := pg.Stats().Pages
	for _, r := range refs {
		freeSync(rt, pg, r)
	}
	if got := pg.Stats().Frees; got != 30 {
		t.Fatalf("Frees = %d, want 30", got)
	}
	// Refill: recycled slots mean no (or barely any) new pages.
	for k := uint64(100); k < 130; k++ {
		storeSync(t, rt, pg, k, k)
	}
	if got := pg.Stats().Pages; got != pagesBefore {
		t.Fatalf("Pages grew %d -> %d despite %d freed slots", pagesBefore, got, len(refs))
	}
}

func TestPagerConcurrentClients(t *testing.T) {
	rt := newRuntime(4)
	defer rt.Stop()
	pg, _ := newPager(t, rt, 128, 4)
	defer pg.Close()

	const clients, per = 4, 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := uint64(c*per + i)
				var inner sync.WaitGroup
				inner.Add(1)
				pg.Store(nil, key, key^0xABCD, func(ctx *mxtask.Context, ref uint64, err error) {
					if err != nil {
						t.Errorf("store %d: %v", key, err)
						inner.Done()
						return
					}
					// Chain the load off the store's context.
					pg.Load(ctx, ref, key, func(_ *mxtask.Context, v uint64, ok bool, err error) {
						if err != nil || !ok || v != key^0xABCD {
							t.Errorf("load %d = (%d, %v, %v)", key, v, ok, err)
						}
						inner.Done()
					})
				})
				inner.Wait()
			}
		}(c)
	}
	wg.Wait()
	st := pg.Stats()
	if st.Allocs != clients*per {
		t.Fatalf("Allocs = %d, want %d", st.Allocs, clients*per)
	}
}

func TestPagerFlush(t *testing.T) {
	rt := newRuntime(1)
	defer rt.Stop()
	fs := faultfs.NewMem(1)
	pg, err := Open(rt, Config{Path: "/pg/pages", FS: fs, PageBytes: 128, PoolFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref := storeSync(t, rt, pg, 1, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	pg.Flush(nil, func(_ *mxtask.Context, err error) {
		if err != nil {
			t.Errorf("Flush: %v", err)
		}
		wg.Done()
	})
	wg.Wait()
	// The flushed image on the file decodes and holds the record.
	pageID, slot := SplitRef(ref)
	raw, err := fs.OpenRandom("/pg/pages", os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if _, err := raw.ReadAt(buf, int64(pageID)*128); err != nil {
		t.Fatal(err)
	}
	p, err := DecodePage(buf, pageID)
	if err != nil {
		t.Fatalf("flushed page does not decode: %v", err)
	}
	if s, ok := p.Slot(slot); !ok || s != (Slot{1, 2}) {
		t.Fatalf("flushed slot = %+v, %v", s, ok)
	}
	if err := pg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pg.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
