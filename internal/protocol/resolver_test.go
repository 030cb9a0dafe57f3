package protocol

import (
	"fmt"
	"sync"
	"testing"

	"detshmem/internal/baseline"
	"detshmem/internal/core"
	"detshmem/internal/obs"
)

// TestCompiledResolverEquivalence proves the compiled table is byte-identical
// to live CopyAddr resolution: for every mapper in the fuzz matrix, every
// variable, every copy, eager and lazy compilation both return exactly the
// (module, addr) the live algebra computes.
func TestCompiledResolverEquivalence(t *testing.T) {
	for _, m := range mapperFuzzSetup(t) {
		for _, mode := range []struct {
			name string
			opts CompileOptions
		}{
			{"eager", CompileOptions{Eager: true}},
			{"eager-1worker", CompileOptions{Eager: true, Workers: 1}},
			{"lazy", CompileOptions{Lazy: true}},
		} {
			t.Run(fmt.Sprintf("%s/%s", m.Name(), mode.name), func(t *testing.T) {
				r, err := CompileMapper(m, mode.opts)
				if err != nil {
					t.Fatal(err)
				}
				// Sweep every variable on small mappers; stride large ones
				// (the q=8 core scheme has 266k variables) so ~32k spread
				// over every lazy shard are still checked.
				step := uint64(1)
				if m.NumVars() > 1<<15 {
					step = m.NumVars() >> 15
				}
				for v := uint64(0); v < m.NumVars(); v += step {
					for c := 0; c < m.Copies(); c++ {
						wantMod, wantAddr := m.CopyAddr(v, c)
						gotMod, gotAddr := r.CopyAddr(v, c)
						if gotMod != wantMod || gotAddr != wantAddr {
							t.Fatalf("%s: compiled CopyAddr(%d,%d) = (%d,%d), live = (%d,%d)",
								m.Name(), v, c, gotMod, gotAddr, wantMod, wantAddr)
						}
					}
				}
				if got := r.Compiled(); got != m.NumVars() {
					t.Fatalf("%s: Compiled() = %d after full sweep, want %d", m.Name(), got, m.NumVars())
				}
			})
		}
	}
}

// TestCompiledResolverMetadata checks the Mapper view of a resolver matches
// the underlying organization exactly, so a resolver can stand in for its
// mapper anywhere (reports, systems, frontends).
func TestCompiledResolverMetadata(t *testing.T) {
	for _, m := range mapperFuzzSetup(t) {
		r, err := CompileMapper(m, CompileOptions{Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.Name() != m.Name() || r.NumVars() != m.NumVars() || r.NumModules() != m.NumModules() ||
			r.Copies() != m.Copies() || r.ReadQuorum() != m.ReadQuorum() ||
			r.WriteQuorum() != m.WriteQuorum() || r.AddrSpace() != m.AddrSpace() {
			t.Fatalf("%s: resolver metadata diverges from mapper", m.Name())
		}
		if r.Mapper() != m {
			t.Fatalf("%s: Mapper() does not return the compiled organization", m.Name())
		}
	}
}

// TestCompileMapperIdempotent checks compiling a resolver returns it
// unchanged.
func TestCompileMapperIdempotent(t *testing.T) {
	m := mapperFuzzSetup(t)[0]
	r1, err := CompileMapper(m, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := CompileMapper(r1, CompileOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("recompiling a CompiledResolver built a new one")
	}
	if _, err := CompileMapper(nil, CompileOptions{}); err == nil {
		t.Fatal("CompileMapper(nil) did not error")
	}
}

// TestCompiledResolverLazyThreshold checks the eager/lazy cutover: small
// mappers compile eagerly by default, and a threshold below the entry count
// switches the default to lazy.
func TestCompiledResolverLazyThreshold(t *testing.T) {
	m := mapperFuzzSetup(t)[0]
	eager, err := CompileMapper(m, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if eager.Compiled() != m.NumVars() {
		t.Fatalf("default compile of %d-var mapper not eager", m.NumVars())
	}
	lazy, err := CompileMapper(m, CompileOptions{LazyThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Compiled() != 0 {
		t.Fatalf("compile above threshold started with %d vars materialized, want 0", lazy.Compiled())
	}
	forced, err := CompileMapper(m, CompileOptions{Eager: true, LazyThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if forced.Compiled() != m.NumVars() {
		t.Fatal("Eager did not override LazyThreshold")
	}
}

// TestCompiledResolverConcurrentLazy hammers one shared lazy resolver from
// many goroutines touching overlapping shards; run under -race this checks
// the publish-once materialization is sound.
func TestCompiledResolverConcurrentLazy(t *testing.T) {
	m := mapperFuzzSetup(t)[2] // MV baseline: 4096 vars = several shards
	r, err := CompileMapper(m, CompileOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for v := uint64(0); v < m.NumVars(); v += uint64(1 + g%3) {
				for c := 0; c < m.Copies(); c++ {
					wantMod, wantAddr := m.CopyAddr(v, c)
					gotMod, gotAddr := r.CopyAddr(v, c)
					if gotMod != wantMod || gotAddr != wantAddr {
						t.Errorf("goroutine %d: CopyAddr(%d,%d) mismatch", g, v, c)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestResolverSharedAcrossSystems runs two systems over one shared eager
// resolver (one via Config.Resolver, one using the resolver as its Mapper)
// and checks they behave identically to an uncompiled system.
func TestResolverSharedAcrossSystems(t *testing.T) {
	s, err := core.New(1, 3) // q=2
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	m := NewCoreMapper(s, idx)
	r, err := CompileMapper(m, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}

	plain, err := NewGenericSystem(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	viaCfg, err := NewGenericSystem(m, Config{Resolver: r})
	if err != nil {
		t.Fatal(err)
	}
	viaMapper, err := NewGenericSystem(r, Config{})
	if err != nil {
		t.Fatal(err)
	}

	n := m.NumModules()
	vars := make([]uint64, n)
	vals := make([]uint64, n)
	for b := 0; b < 10; b++ {
		for i := range vars {
			vars[i] = (uint64(i)*2654435761 + uint64(b)*97) % m.NumVars()
			vals[i] = uint64(b)<<32 | uint64(i)
		}
		dedup := map[uint64]bool{}
		w := 0
		for _, v := range vars {
			if !dedup[v] {
				dedup[v] = true
				vars[w] = v
				w++
			}
		}
		vars := vars[:w]
		vals := vals[:w]
		for _, sys := range []*System{plain, viaCfg, viaMapper} {
			if _, err := sys.WriteBatch(vars, vals); err != nil {
				t.Fatal(err)
			}
		}
		got := make([][]uint64, 3)
		for i, sys := range []*System{plain, viaCfg, viaMapper} {
			vs, _, err := sys.ReadBatch(vars)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = vs
		}
		for i := range vars {
			if got[0][i] != got[1][i] || got[0][i] != got[2][i] {
				t.Fatalf("batch %d var %d: plain=%d viaCfg=%d viaMapper=%d",
					b, vars[i], got[0][i], got[1][i], got[2][i])
			}
			if got[0][i] != vals[i] {
				t.Fatalf("batch %d var %d: read %d, wrote %d", b, vars[i], got[0][i], vals[i])
			}
		}
	}
}

// TestResolverGeometryMismatch checks Config.Resolver rejects a resolver
// compiled for a different organization.
func TestResolverGeometryMismatch(t *testing.T) {
	mv, err := baseline.NewMV(64, 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := baseline.NewMV(64, 2048, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := CompileMapper(other, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGenericSystem(mv, Config{Resolver: r}); err == nil {
		t.Fatal("mismatched resolver accepted")
	}
}

// TestResolverResidencyGauges checks CompiledShards/ResidentBytes and the
// obs wiring: an attached collector sees the residency at attachment, every
// lazy materialization pushes an update, and an eager table reports one
// resident block of vars·copies·16 bytes.
func TestResolverResidencyGauges(t *testing.T) {
	m := mapperFuzzSetup(t)[2] // MV baseline: 4096 vars = several lazy shards

	eager, err := CompileMapper(m, CompileOptions{Eager: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := eager.CompiledShards(); got != 1 {
		t.Fatalf("eager CompiledShards() = %d, want 1", got)
	}
	wantBytes := m.NumVars() * uint64(m.Copies()) * 16
	if got := eager.ResidentBytes(); got != wantBytes {
		t.Fatalf("eager ResidentBytes() = %d, want %d", got, wantBytes)
	}

	lazy, err := CompileMapper(m, CompileOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	c := obs.NewCollector()
	lazy.Observe(c)
	if c.ResolverShards.Load() != 0 || c.ResolverBytes.Load() != 0 {
		t.Fatalf("fresh lazy resolver published shards=%d bytes=%d, want 0/0",
			c.ResolverShards.Load(), c.ResolverBytes.Load())
	}
	lazy.CopyAddr(0, 0) // touch shard 0
	if got := c.ResolverShards.Load(); got != 1 {
		t.Fatalf("after one touch ResolverShards = %d, want 1", got)
	}
	if got, want := c.ResolverBytes.Load(), int64(shardVars*m.Copies()*16); got != want {
		t.Fatalf("after one touch ResolverBytes = %d, want %d", got, want)
	}
	lazy.CopyAddr(shardVars, 0) // touch shard 1
	if got := c.ResolverShards.Load(); got != 2 {
		t.Fatalf("after second shard ResolverShards = %d, want 2", got)
	}
	if got := lazy.CompiledShards(); got != 2 {
		t.Fatalf("CompiledShards() = %d, want 2", got)
	}
}

// TestSystemWiresResolverObserver checks NewGenericSystem attaches a
// collector Observer to its resolver, so lazy growth during real batches
// lands on the gauges without any explicit Observe call.
func TestSystemWiresResolverObserver(t *testing.T) {
	mv, err := baseline.NewMV(64, 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := obs.NewCollector()
	sys, err := NewGenericSystem(mv, Config{Resolver: lazyResolver(t, mv), Observer: c})
	if err != nil {
		t.Fatal(err)
	}
	if c.ResolverShards.Load() != 0 {
		t.Fatalf("gauge non-zero before any access: %d", c.ResolverShards.Load())
	}
	if _, err := sys.WriteBatch([]uint64{1, 2, 3}, []uint64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	if c.ResolverShards.Load() == 0 || c.ResolverBytes.Load() == 0 {
		t.Fatalf("gauges not updated by lazy materialization: shards=%d bytes=%d",
			c.ResolverShards.Load(), c.ResolverBytes.Load())
	}
}
