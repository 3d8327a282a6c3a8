package xorblock

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

func randBlock(t *testing.T, n int, seed int64) []byte {
	t.Helper()
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestXorManyIntoMatchesXorMany(t *testing.T) {
	for _, srcCount := range []int{1, 2, 3, 5, 8} {
		for _, size := range []int{0, 1, 7, 8, 9, 64, 1000} {
			srcs := make([][]byte, srcCount)
			for i := range srcs {
				srcs[i] = randBlock(t, size, int64(srcCount*100+i))
			}
			want, err := XorMany(srcs...)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, size)
			if err := XorManyInto(dst, srcs...); err != nil {
				t.Fatalf("srcs=%d size=%d: %v", srcCount, size, err)
			}
			if !bytes.Equal(dst, want) {
				t.Errorf("srcs=%d size=%d: XorManyInto disagrees with XorMany", srcCount, size)
			}
		}
	}
}

func TestXorManyIntoAliasing(t *testing.T) {
	a := randBlock(t, 100, 1)
	b := randBlock(t, 100, 2)
	c := randBlock(t, 100, 3)
	want, err := XorMany(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	// dst aliases the first source.
	dst := append([]byte(nil), a...)
	if err := XorManyInto(dst, dst, b, c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, want) {
		t.Error("aliasing the first source corrupted the result")
	}
	// dst aliases a later source.
	dst = append([]byte(nil), c...)
	if err := XorManyInto(dst, a, b, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, want) {
		t.Error("aliasing a later source corrupted the result")
	}
}

func TestXorManyIntoErrors(t *testing.T) {
	if err := XorManyInto(make([]byte, 4)); err == nil {
		t.Error("no sources: want error")
	}
	if err := XorManyInto(make([]byte, 4), make([]byte, 5)); err == nil {
		t.Error("length mismatch: want error")
	}
	if err := XorManyInto(make([]byte, 4), make([]byte, 4), make([]byte, 3)); err == nil {
		t.Error("second source mismatch: want error")
	}
}

func TestXorManyIntoSingleSourceCopies(t *testing.T) {
	src := randBlock(t, 33, 9)
	dst := make([]byte, 33)
	if err := XorManyInto(dst, src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Error("single-source XorManyInto should copy the source")
	}
}

func TestPoolRecycles(t *testing.T) {
	p := NewPool(64)
	if p.BlockSize() != 64 {
		t.Fatalf("BlockSize() = %d, want 64", p.BlockSize())
	}
	b := p.Get()
	if len(b) != 64 {
		t.Fatalf("Get returned %d bytes, want 64", len(b))
	}
	p.Put(b)
	// Wrong sizes and nil must be rejected without panicking.
	p.Put(make([]byte, 63))
	p.Put(nil)
	if got := p.Get(); len(got) != 64 {
		t.Fatalf("Get after bad Puts returned %d bytes, want 64", len(got))
	}
}

// TestPoolSteadyStateAllocatesNothing pins the recycling: once a block
// has been put back, a Get and a Put allocate neither a block nor the
// box it travels through the pool in, and pool.fresh stays still.
func TestPoolSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts over pooled buffers mean nothing under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: every Get meets the slot the last Put filled
	p := NewPool(1 << 10)
	p.Put(p.Get())
	fresh := obsPoolFresh.Value()
	if allocs := testing.AllocsPerRun(100, func() { p.Put(p.Get()) }); allocs != 0 {
		t.Errorf("a warm Get+Put allocates %v objects, want 0", allocs)
	}
	if n := obsPoolFresh.Value() - fresh; n != 0 {
		t.Errorf("pool.fresh moved by %d over warm Get+Put pairs, want 0", n)
	}
}

// TestPoolCountsFreshBlocks pins pool.fresh: a Get from an empty pool
// allocates a zeroed block and counts it.
func TestPoolCountsFreshBlocks(t *testing.T) {
	p := NewPool(48)
	before := obsPoolFresh.Value()
	a, b := p.Get(), p.Get()
	if n := obsPoolFresh.Value() - before; n != 2 {
		t.Fatalf("two Gets from an empty pool moved pool.fresh by %d, want 2", n)
	}
	if !IsZero(a) || !IsZero(b) || len(a) != 48 || len(b) != 48 {
		t.Fatal("a fresh block is not 48 zero bytes")
	}
}

func TestPoolForSharedBySize(t *testing.T) {
	if PoolFor(128) != PoolFor(128) {
		t.Error("PoolFor(128) should return one shared pool")
	}
	if PoolFor(128) == PoolFor(256) {
		t.Error("different sizes must get different pools")
	}
	if got := PoolFor(256).Get(); len(got) != 256 {
		t.Errorf("PoolFor(256).Get() returned %d bytes", len(got))
	}
}

func TestNewPoolRejectsBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPool(0) should panic")
		}
	}()
	NewPool(0)
}
