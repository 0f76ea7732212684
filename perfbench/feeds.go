package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/netip"

	"aspp"
	"aspp/internal/bgp"
	"aspp/internal/collector"
	"aspp/internal/detect"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// The daemon is run with its defaults (-n 2000 -seed 1 -monitors top40),
// so the benchmark builds its feeds over the same topology and monitor
// set; only the feed itself depends on the benchmark's seed.
const (
	daemonASes     = 2000
	daemonMonitors = 40
	churnEvents    = 60 // asppload's default corpus size
	// dumpPrefixes is roughly how many distinct prefixes the table-dump
	// feed reaches by renaming the collector origins' prefixes into
	// disjoint copies.
	dumpPrefixes = 76000
)

// daemonWorld rebuilds the daemon's topology and monitor set.
func daemonWorld() (*topology.Graph, []bgp.ASN, error) {
	in, err := aspp.NewInternet(aspp.WithSize(daemonASes), aspp.WithSeed(1))
	if err != nil {
		return nil, nil, err
	}
	g := in.Graph()
	return g, g.TopByDegree(daemonMonitors), nil
}

// feed is a pre-encoded update stream: the bytes of one cycle, its frame
// count, and boundaries that split it into whole frames (every frame for
// the churn corpus, each monitor's dump for the table dump).
type feed struct {
	buf    []byte
	offs   []int // offs[0] == 0, offs[len-1] == len(buf)
	frames int
}

func encodeFeed(ups []bgp.Update) (*feed, error) {
	f := &feed{offs: make([]int, 1, len(ups)+1), frames: len(ups)}
	for _, u := range ups {
		var err error
		if f.buf, err = bgp.AppendUpdateBinary(f.buf, u); err != nil {
			return nil, err
		}
		f.offs = append(f.offs, len(f.buf))
	}
	return f, nil
}

// churnCorpus is the serve-replay feed: the churn simulator's update
// stream (collector.ChurnStream) for churnEvents link failures planned
// from seed.
func churnCorpus(g *topology.Graph, monitors []bgp.ASN, seed int64) ([]bgp.Update, error) {
	origins, err := collector.AssignOrigins(g, collector.DefaultPolicyConfig())
	if err != nil {
		return nil, err
	}
	evs := collector.PlanChurn(origins, churnEvents, seed)
	if len(evs) == 0 {
		return nil, errors.New("no churn events planned")
	}
	return collector.ChurnStream(g, origins, evs, monitors, 0, nil)
}

// tableDump is the serve-table-dump feed: full-table dumps, as after
// session resets. Every collector origin's prefixes are renamed into
// disjoint copies (about dumpPrefixes in all), and every monitor
// announces each of them once with its steady-state route, monitor by
// monitor; the seed shuffles the prefix order within each monitor's dump.
// It returns the encoded stream and the number of distinct prefixes.
func tableDump(g *topology.Graph, monitors []bgp.ASN, seed int64) (*feed, int, error) {
	origins, err := collector.AssignOrigins(g, collector.DefaultPolicyConfig())
	if err != nil {
		return nil, 0, err
	}
	type entry struct {
		origin int // index into paths
		pfx    netip.Prefix
	}
	var base []int // origin index per base prefix
	paths := make([][]bgp.Path, len(origins))
	for oi, oc := range origins {
		res, err := routing.Propagate(g, oc.Announcement)
		if err != nil {
			return nil, 0, fmt.Errorf("propagate %v: %w", oc.AS, err)
		}
		paths[oi] = make([]bgp.Path, len(monitors))
		for mi, m := range monitors {
			paths[oi][mi] = res.PathOf(m)
		}
		for range oc.Prefixes {
			base = append(base, oi)
		}
	}
	copies := max(1, dumpPrefixes/len(base))
	entries := make([]entry, 0, copies*len(base))
	for k := 0; k < copies; k++ {
		for j, oi := range base {
			idx := uint32(k*len(base) + j)
			v := 0x01000000 + idx*256 // one /24 each, as the collector numbers them
			addr := netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), 0})
			entries = append(entries, entry{oi, netip.PrefixFrom(addr, 24)})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	f := &feed{offs: []int{0}}
	f.buf = make([]byte, 0, len(entries)*len(monitors)*48)
	var tm uint64
	for mi, m := range monitors {
		rng.Shuffle(len(entries), func(a, b int) { entries[a], entries[b] = entries[b], entries[a] })
		for _, en := range entries {
			p := paths[en.origin][mi]
			if p == nil {
				continue
			}
			tm++
			f.frames++
			f.buf, err = bgp.AppendUpdateBinary(f.buf, bgp.Update{
				Time: tm, Monitor: m, Type: bgp.Announce, Prefix: en.pfx, Path: p,
			})
			if err != nil {
				return nil, 0, err
			}
		}
		f.offs = append(f.offs, len(f.buf)) // one boundary per monitor's dump
	}
	return f, len(entries), nil
}

// serialAlarms replays buf cycles times through one detect.Detector,
// update by update with Observe, and returns the cumulative alarm count
// after each cycle. The daemon shards detection by prefix, which
// preserves each prefix's update order, so its alarm count must equal
// this serial replay's.
func serialAlarms(g *topology.Graph, monitors []bgp.ASN, buf []byte, cycles int) ([]int64, error) {
	d := detect.NewDetector(monitors, g)
	cum := make([]int64, cycles+1)
	var u bgp.Update
	var alarms int64
	for c := 1; c <= cycles; c++ {
		dec := bgp.NewStreamDecoder(bytes.NewReader(buf))
		for {
			err := dec.Next(&u)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, err
			}
			alarms += int64(len(d.Observe(u)))
		}
		cum[c] = alarms
	}
	return cum, nil
}

// decodeAll decodes buf into updates whose paths are copied out of the
// decoder's buffer.
func decodeAll(buf []byte) ([]bgp.Update, error) {
	var out []bgp.Update
	var u bgp.Update
	dec := bgp.NewStreamDecoder(bytes.NewReader(buf))
	for {
		err := dec.Next(&u)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		u.Path = append(bgp.Path(nil), u.Path...)
		out = append(out, u)
	}
}

// prefixRuns calls fn for each maximal run of consecutive same-prefix
// updates, the unit the daemon's workers hand to ObserveBatch.
func prefixRuns(ups []bgp.Update, fn func([]bgp.Update)) {
	for i := 0; i < len(ups); {
		j := i + 1
		for j < len(ups) && ups[j].Prefix == ups[i].Prefix {
			j++
		}
		fn(ups[i:j])
		i = j
	}
}
