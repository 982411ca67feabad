package demand

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
)

// The sampler's O(1) machinery (alias destinations, triangle-fan points,
// equirectangular distances). Contract: points land inside their region,
// distances track the haversine, and the sampler agrees in distribution
// with linearSampleRegion, the straightforward linear-time reference below,
// even though their sample paths differ.

func TestRandPointInFastStaysInsideRegion(t *testing.T) {
	m := testModel(t)
	src := rng.New(31)
	for r := 0; r < m.part.Len(); r += 7 {
		poly := m.part.Region(r).Polygon
		for i := 0; i < 200; i++ {
			p := m.randPointIn(src, r)
			if !poly.Contains(p) {
				t.Fatalf("region %d: fast point %v outside polygon", r, p)
			}
		}
	}
}

func TestRandPointInFastCoversTriangles(t *testing.T) {
	// The fan pick must not collapse onto one triangle: for a quad region,
	// both fan triangles have positive area and must both be hit.
	m := testModel(t)
	src := rng.New(8)
	tr := &m.tris[0]
	if len(tr.cum) < 2 {
		t.Skip("region 0 is not a quad")
	}
	hit := make([]int, len(tr.cum))
	for i := 0; i < 2000; i++ {
		p := m.randPointIn(src, 0)
		// Classify by which side of the fan diagonal (apex, c[0]) p falls.
		a, c := tr.apex, tr.c[0]
		cross := (c.Lng-a.Lng)*(p.Lat-a.Lat) - (p.Lng-a.Lng)*(c.Lat-a.Lat)
		if cross > 0 {
			hit[0]++
		} else {
			hit[1]++
		}
	}
	for i, h := range hit {
		if h == 0 {
			t.Fatalf("triangle %d of the fan never sampled (hits %v)", i, hit)
		}
	}
}

func TestEquirectangularTracksHaversine(t *testing.T) {
	m := testModel(t)
	src := rng.New(17)
	for i := 0; i < 500; i++ {
		p := m.randPointIn(src, src.Intn(m.part.Len()))
		q := m.randPointIn(src, src.Intn(m.part.Len()))
		want := geo.Distance(p, q)
		got := geo.DistanceApprox(p, q)
		if want > 0.1 && math.Abs(got-want)/want > 0.001 {
			t.Fatalf("approx %v vs haversine %v at %v-%v: relative error %.5f",
				got, want, p, q, math.Abs(got-want)/want)
		}
	}
}

func TestFastAndLinearSamplersAgreeInDistribution(t *testing.T) {
	m := testModel(t)
	const origin, n = 0, 3000
	var fast, slow []Request
	fs, ss := rng.New(4), rng.New(5)
	for len(fast) < n {
		fast = m.SampleRegionScaled(fast, fs, origin, 480, 10, 25)
	}
	for len(slow) < n {
		slow = linearSampleRegion(m, slow, ss, origin, 480, 10, 25)
	}
	mean := func(rs []Request) (dist, fare float64) {
		for _, r := range rs {
			dist += r.DistanceKm
			fare += r.Fare
		}
		return dist / float64(len(rs)), fare / float64(len(rs))
	}
	fd, ff := mean(fast)
	sd, sf := mean(slow)
	if math.Abs(fd-sd)/sd > 0.05 {
		t.Fatalf("mean trip distance: fast %.3f vs linear %.3f", fd, sd)
	}
	if math.Abs(ff-sf)/sf > 0.05 {
		t.Fatalf("mean fare: fast %.2f vs linear %.2f", ff, sf)
	}
	// Destination marginals: total-variation distance between the two
	// samplers' empirical destination distributions stays small.
	nreg := m.part.Len()
	fc, sc := make([]float64, nreg), make([]float64, nreg)
	for _, r := range fast {
		fc[r.DestRegion]++
	}
	for _, r := range slow {
		sc[r.DestRegion]++
	}
	tv := 0.0
	for i := range fc {
		tv += math.Abs(fc[i]/float64(len(fast)) - sc[i]/float64(len(slow)))
	}
	if tv /= 2; tv > 0.15 {
		t.Fatalf("destination distributions diverge: TV distance %.3f", tv)
	}
}

// linearSampleRegion is the reference sampler the O(1) path replaced: the
// same Poisson count and arrival draws, then a linear-scan weighted choice
// over freshly computed gravity weights, rejection-sampled points within
// each region's bounding box (centroid after eight misses), and haversine
// trip distances.
func linearSampleRegion(m *Model, dst []Request, src *rng.Source, region, tMin, slotMin int, factor float64) []Request {
	mean := m.ExpectedSlotDemand(region, tMin, slotMin)
	if factor > 0 {
		mean *= factor
	} else {
		mean = 0
	}
	n := m.part.Len()
	ws := make([]float64, n)
	for d := 0; d < n; d++ {
		dist := m.part.Distance(region, d)
		ws[d] = m.profiles[d].Attractiveness / (1 + 0.05*dist*dist)
		if d == region {
			ws[d] *= 0.1
		}
	}
	point := func(r int) geo.Point {
		reg := m.part.Region(r)
		bb := reg.Polygon.BBox()
		for try := 0; try < 8; try++ {
			p := geo.Point{Lng: src.Uniform(bb.MinLng, bb.MaxLng), Lat: src.Uniform(bb.MinLat, bb.MaxLat)}
			if reg.Polygon.Contains(p) {
				return p
			}
		}
		return reg.Centroid
	}
	count := src.Poisson(mean)
	for i := 0; i < count; i++ {
		at := tMin + src.Intn(maxInt(slotMin, 1))
		dest := src.WeightedChoice(ws)
		op := point(region)
		dp := point(dest)
		dst = append(dst, m.trip(src, region, dest, op, dp, geo.Distance(op, dp)*RoadFactor, at))
	}
	return dst
}
