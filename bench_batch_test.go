package aspp

import (
	"fmt"
	"testing"

	"aspp/internal/routing"
	"aspp/internal/topology"
)

// BenchmarkBatchVsSerial is the lane-batching ablation at full paper scale
// (n=4000), shaped like the usage survey's table leg: K uniform
// (origin, λ) propagations over a mixed-tier origin set, computed either as K
// serial PropagateScratch calls on one warmed Scratch or as one K-lane
// PropagateBatch on one warmed BatchScratch. The batch shares a single
// frontier walk across all K lanes, so its advantage is amortized graph
// traversal and lane-row cache locality; the acceptance bar is ≥1.5×
// geomean over the serial leg with 0 allocs/op once warmed.
func BenchmarkBatchVsSerial(b *testing.B) {
	cfg := topology.DefaultGenConfig(4000)
	cfg.Seed = 9
	g, err := topology.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	asns := g.ASNs()
	anns := make([]routing.Announcement, 64)
	for i := range anns {
		anns[i] = routing.Announcement{Origin: asns[(i*131)%len(asns)], Prepend: 1 + i%8}
	}
	for _, k := range []int{8, 64} {
		lanes := anns[:k]
		b.Run(fmt.Sprintf("serial/K=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			s := routing.NewScratch()
			if _, err := routing.PropagateScratch(g, lanes[0], s); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, ann := range lanes {
					if _, err := routing.PropagateScratch(g, ann, s); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("batch/K=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			bs := routing.NewBatchScratch()
			if _, err := routing.PropagateBatch(g, lanes, bs); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := routing.PropagateBatch(g, lanes, bs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
