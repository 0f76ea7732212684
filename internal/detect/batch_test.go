package detect

// Tests for the batched observation path behind asppserve (PR 10): the
// prefix shard map, Pool construction, and the differential gate that
// pins sharded ObserveBatch to the serial per-update Observe over a
// realistic churn replay.

import (
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/collector"
	"aspp/internal/topology"
)

func TestPrefixShardProperties(t *testing.T) {
	counts := make([]int, 8)
	for i := 0; i < 4096; i++ {
		pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		s := PrefixShard(pfx, 8)
		if s < 0 || s >= 8 {
			t.Fatalf("PrefixShard(%v, 8) = %d out of range", pfx, s)
		}
		if again := PrefixShard(pfx, 8); again != s {
			t.Fatalf("PrefixShard not deterministic: %d then %d", s, again)
		}
		if one := PrefixShard(pfx, 1); one != 0 {
			t.Fatalf("PrefixShard(_, 1) = %d, want 0", one)
		}
		counts[s]++
	}
	// FNV over distinct prefixes should land in every shard, roughly
	// uniformly (loose bound: no shard under a quarter of fair share).
	for s, c := range counts {
		if c < 4096/8/4 {
			t.Errorf("shard %d got %d of 4096 prefixes — distribution badly skewed: %v", s, c, counts)
		}
	}
	// Bits participate in the hash: same address, different length.
	a := netip.MustParsePrefix("10.0.0.0/24")
	b := netip.MustParsePrefix("10.0.0.0/25")
	var differ bool
	for n := 2; n <= 64; n++ {
		if PrefixShard(a, n) != PrefixShard(b, n) {
			differ = true
			break
		}
	}
	if !differ {
		t.Error("prefix length never affects the shard — Bits not hashed?")
	}
}

func TestPoolBasics(t *testing.T) {
	mons := []bgp.ASN{100, 200}
	p := NewPool(0, mons, nil) // n<1 clamps to 1
	if p.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", p.NumShards())
	}
	p = NewPool(4, mons, nil)
	if p.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", p.NumShards())
	}
	pfx := netip.MustParsePrefix("10.1.2.0/24")
	si := p.ShardOf(pfx)
	u := bgp.Update{Monitor: 100, Type: bgp.Announce, Prefix: pfx, Path: bgp.Path{1, 2, 7}}
	p.Shard(si).Observe(u)
	if got := p.Shard(si).RouteOf(pfx, 100); !got.Equal(u.Path) {
		t.Fatalf("shard %d RouteOf = %v, want %v", si, got, u.Path)
	}
	if p.MemoryBytes() <= 0 {
		t.Fatalf("MemoryBytes = %d, want > 0", p.MemoryBytes())
	}
}

// churnCorpus builds a ≥minUpdates churn replay over a generated
// topology — the same corpus shape asppserve's load generator replays.
func churnCorpus(t testing.TB, nAS int, seed int64, nMon, events, minUpdates int) ([]bgp.Update, []bgp.ASN, *topology.Graph) {
	t.Helper()
	cfg := topology.DefaultGenConfig(nAS)
	cfg.Seed = seed
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	origins, err := collector.AssignOrigins(g, collector.DefaultPolicyConfig())
	if err != nil {
		t.Fatalf("AssignOrigins: %v", err)
	}
	monitors := g.TopByDegree(nMon)
	evs := collector.PlanChurn(origins, events, seed+1)
	if len(evs) == 0 {
		t.Fatal("no churn events planned")
	}
	updates, err := collector.ChurnStream(g, origins, evs, monitors, 4, nil)
	if err != nil {
		t.Fatalf("ChurnStream: %v", err)
	}
	if len(updates) < minUpdates {
		t.Fatalf("churn corpus has %d updates, need ≥%d — raise events", len(updates), minUpdates)
	}
	return updates, monitors, g
}

func sortAlarms(alarms []Alarm) {
	sort.Slice(alarms, func(i, j int) bool {
		a, b := alarms[i], alarms[j]
		if a.Confidence != b.Confidence {
			return a.Confidence < b.Confidence
		}
		if a.Suspect != b.Suspect {
			return a.Suspect < b.Suspect
		}
		if a.Monitor != b.Monitor {
			return a.Monitor < b.Monitor
		}
		if a.Witness != b.Witness {
			return a.Witness < b.Witness
		}
		return a.RemovedPads < b.RemovedPads
	})
}

// TestShardedBatchDifferential is the PR 10 verdict gate: replaying a
// ≥5k-update churn stream through a prefix-sharded Pool via ObserveBatch
// (several flush chunk sizes) yields exactly the serial per-update
// Observe alarm multiset. Sharding by prefix is verdict-preserving
// because detection state never crosses prefixes; batching is
// verdict-preserving because only compaction is deferred.
func TestShardedBatchDifferential(t *testing.T) {
	updates, monitors, g := churnCorpus(t, 1500, 23, 40, 300, 5000)
	t.Logf("churn corpus: %d updates", len(updates))

	serial := NewDetector(monitors, g)
	var want []Alarm
	for _, u := range updates {
		want = append(want, serial.Observe(u)...)
	}
	if len(want) == 0 {
		t.Fatal("serial replay raised no alarms — corpus does not exercise detection")
	}
	sortAlarms(want)

	for _, chunk := range []int{1, 7, 64, 256} {
		pool := NewPool(5, monitors, g)
		// Partition the stream by shard, preserving per-shard order (what
		// the serve rings do), then flush each shard in chunk-sized runs.
		parts := make([][]bgp.Update, pool.NumShards())
		for _, u := range updates {
			si := pool.ShardOf(u.Prefix)
			parts[si] = append(parts[si], u)
		}
		var got []Alarm
		for si, part := range parts {
			d := pool.Shard(si)
			for i := 0; i < len(part); i += chunk {
				j := i + chunk
				if j > len(part) {
					j = len(part)
				}
				got = d.ObserveBatch(part[i:j], got)
			}
		}
		sortAlarms(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d: sharded ObserveBatch alarms diverge from serial Observe\nsharded %d alarms, serial %d", chunk, len(got), len(want))
		}
	}
	t.Logf("differential held: %d alarms across all chunkings", len(want))
}

// TestObserveBatchZeroAlloc pins the warmed batched path at zero
// allocations — the asppserve acceptance criterion. Same scenario as
// TestDetectorObserveZeroAlloc, driven through ObserveBatch with a
// caller-owned alarm buffer.
func TestObserveBatchZeroAlloc(t *testing.T) {
	prefix := netip.MustParsePrefix("10.0.0.0/24")
	d := NewDetector([]bgp.ASN{100, 200}, nil)
	pathA3 := bgp.Path{1, 2, 7, 7, 7}
	pathA2 := bgp.Path{1, 2, 7, 7}
	pathB := bgp.Path{3, 4, 8}
	warm := []bgp.Update{
		{Monitor: 200, Type: bgp.Announce, Prefix: prefix, Path: pathB},
		{Monitor: 100, Type: bgp.Announce, Prefix: prefix, Path: pathA3},
		{Monitor: 100, Type: bgp.Announce, Prefix: prefix, Path: pathA2},
		{Monitor: 100, Type: bgp.Announce, Prefix: prefix, Path: pathA3},
	}
	alarms := make([]Alarm, 0, 8)
	alarms = d.ObserveBatch(warm, alarms[:0])
	batch := []bgp.Update{
		{Monitor: 100, Type: bgp.Announce, Prefix: prefix, Path: pathA2}, // λ 3→2: trigger leg
		{Monitor: 100, Type: bgp.Announce, Prefix: prefix, Path: pathA3}, // λ 2→3: store leg
	}
	if avg := testing.AllocsPerRun(50, func() {
		alarms = d.ObserveBatch(batch, alarms[:0])
	}); avg != 0 {
		t.Errorf("warmed ObserveBatch allocates %.1f objects per run, want 0", avg)
	}
	if len(alarms) != 0 {
		t.Fatalf("unexpected alarms: %v", alarms)
	}
}

// TestObserveBatchMatchesObserve pins the trivial contract: a batch of
// one behaves exactly like Observe, including alarm contents.
func TestObserveBatchMatchesObserve(t *testing.T) {
	updates, monitors, g := churnCorpus(t, 400, 31, 20, 40, 200)
	a := NewDetector(monitors, g)
	b := NewDetector(monitors, g)
	var buf []Alarm
	for i, u := range updates {
		want := a.Observe(u)
		buf = b.ObserveBatch(updates[i:i+1], buf[:0])
		got := buf
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("update %d: ObserveBatch %+v, Observe %+v", i, got, want)
		}
	}
}

// TestWithdrawUnseenPrefixStoresNothing: a withdrawal of a prefix the
// detector has never seen must not allocate a span row. 10k such
// withdrawals leave the row count and MemoryBytes unchanged, the lookup
// memo never caches an absent row, and interleaving them into a churn
// replay leaves its alarm multiset and final table unchanged.
func TestWithdrawUnseenPrefixStoresNothing(t *testing.T) {
	updates, monitors, g := churnCorpus(t, 400, 31, 20, 40, 200)
	unseen := make([]bgp.Update, 10000)
	for i := range unseen {
		// 240.0.0.0/4 is reserved; the churn corpus never announces it.
		addr := netip.AddrFrom4([4]byte{240, byte(i >> 16), byte(i >> 8), byte(i)})
		unseen[i] = bgp.Update{
			Monitor: monitors[i%len(monitors)],
			Type:    bgp.Withdraw,
			Prefix:  netip.PrefixFrom(addr, 32),
		}
	}

	clean := NewDetector(monitors, g)
	var want []Alarm
	for _, u := range updates {
		want = append(want, clean.Observe(u)...)
	}
	if len(want) == 0 {
		t.Fatal("churn replay raised no alarms — corpus does not exercise detection")
	}
	rows, mem := len(clean.routes), clean.MemoryBytes()

	if got := clean.ObserveBatch(unseen, nil); len(got) != 0 {
		t.Fatalf("unseen withdrawals raised %d alarms", len(got))
	}
	for _, u := range unseen[:100] {
		clean.Observe(u)
	}
	if got := len(clean.routes); got != rows {
		t.Errorf("unseen withdrawals changed the row count: %d -> %d", rows, got)
	}
	if got := clean.MemoryBytes(); got != mem {
		t.Errorf("unseen withdrawals changed MemoryBytes: %d -> %d", mem, got)
	}
	if _, ok := clean.routes[clean.lastPfx]; clean.lastSpans != nil && !ok {
		t.Errorf("lookup memo caches absent prefix %v", clean.lastPfx)
	}

	mixed := NewDetector(monitors, g)
	var got []Alarm
	for i, u := range updates {
		got = mixed.ObserveBatch([]bgp.Update{unseen[i%len(unseen)], u}, got)
	}
	sortAlarms(got)
	sortAlarms(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("interleaved unseen withdrawals changed the alarms: %d vs %d", len(got), len(want))
	}
	if len(mixed.routes) != rows {
		t.Errorf("interleaved replay holds %d rows, clean replay %d", len(mixed.routes), rows)
	}
}
