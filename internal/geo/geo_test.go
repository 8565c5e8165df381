package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPointDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-2, 0}, Point{2, 0}, 4},
		{Point{0, -1}, Point{0, 1}, 2},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
		if got := c.p.DistSq(c.q); !almostEqual(got, c.want*c.want, 1e-9) {
			t.Errorf("DistSq(%v,%v) = %v, want %v", c.p, c.q, got, c.want*c.want)
		}
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e9)
		}
		p, q := Point{clamp(ax), clamp(ay)}, Point{clamp(bx), clamp(by)}
		return p.Dist(q) == q.Dist(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		// Restrict magnitudes so floating error stays bounded.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		c := Point{clamp(cx), clamp(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := (Point{3, 4}).Norm(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Norm = %v", got)
	}
}

func TestLerp(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 20}
	if got := Lerp(a, b, 0); got != a {
		t.Errorf("Lerp t=0 = %v", got)
	}
	if got := Lerp(a, b, 1); got != b {
		t.Errorf("Lerp t=1 = %v", got)
	}
	if got := Lerp(a, b, 0.5); got != (Point{5, 10}) {
		t.Errorf("Lerp t=0.5 = %v", got)
	}
}

func TestRectContainsExtend(t *testing.T) {
	r := Rect{Point{0, 0}, Point{2, 2}}
	if !r.Contains(Point{1, 1}) || !r.Contains(Point{0, 0}) || !r.Contains(Point{2, 2}) {
		t.Error("Contains boundary/inner failed")
	}
	if r.Contains(Point{3, 1}) || r.Contains(Point{1, -0.1}) {
		t.Error("Contains outside point")
	}
	r2 := r.Extend(Point{5, -1})
	if !r2.Contains(Point{5, -1}) || !r2.Contains(Point{0, 0}) {
		t.Error("Extend lost coverage")
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if e.Contains(Point{0, 0}) {
		t.Error("empty rect should contain nothing")
	}
	if e.Area() != 0 {
		t.Errorf("empty rect area = %v", e.Area())
	}
	r := e.Extend(Point{1, 2})
	if !r.Contains(Point{1, 2}) {
		t.Error("extend of empty rect should contain the point")
	}
}

func TestRectGeometry(t *testing.T) {
	r := Rect{Point{1, 2}, Point{4, 6}}
	if r.Width() != 3 || r.Height() != 4 {
		t.Errorf("dims = %v x %v", r.Width(), r.Height())
	}
	if r.Area() != 12 {
		t.Errorf("area = %v", r.Area())
	}
	if r.Center() != (Point{2.5, 4}) {
		t.Errorf("center = %v", r.Center())
	}
	b := r.Buffer(1)
	if b.Min != (Point{0, 1}) || b.Max != (Point{5, 7}) {
		t.Errorf("buffer = %v", b)
	}
}

func TestRectUnion(t *testing.T) {
	a := Rect{Point{0, 0}, Point{2, 2}}
	c := Rect{Point{5, 5}, Point{6, 6}}
	u := a.Union(c)
	if !u.Contains(Point{0, 0}) || !u.Contains(Point{6, 6}) {
		t.Error("union coverage failed")
	}
}

func TestRectUnionCommutativeProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		r := Rect{Point{min(ax, bx), min(ay, by)}, Point{max(ax, bx), max(ay, by)}}
		s := Rect{Point{min(cx, dx), min(cy, dy)}, Point{max(cx, dx), max(cy, dy)}}
		u1, u2 := r.Union(s), s.Union(r)
		return u1 == u2
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestHaversine(t *testing.T) {
	// Beijing Tiananmen to Beijing Capital Airport: roughly 25 km.
	d := Haversine(39.9042, 116.4074, 40.0799, 116.6031)
	if d < 20 || d < 0 || d > 35 {
		t.Errorf("Haversine Beijing = %v km, want ~25", d)
	}
	if got := Haversine(10, 20, 10, 20); got != 0 {
		t.Errorf("zero-distance haversine = %v", got)
	}
	// One degree of latitude is about 111 km.
	if d := Haversine(0, 0, 1, 0); !almostEqual(d, 111.195, 0.1) {
		t.Errorf("1 deg latitude = %v km", d)
	}
}

func TestProjectLatLonRoundTripScale(t *testing.T) {
	// Projection distance should agree with haversine at city scale.
	origLat, origLon := 39.9, 116.4
	p1 := ProjectLatLon(39.95, 116.45, origLat, origLon)
	p2 := ProjectLatLon(39.90, 116.40, origLat, origLon)
	planar := p1.Dist(p2)
	sphere := Haversine(39.95, 116.45, 39.90, 116.40)
	if math.Abs(planar-sphere) > 0.05 {
		t.Errorf("projection error too large: planar=%v sphere=%v", planar, sphere)
	}
}

func TestSegmentDist(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 0}
	d, tt := SegmentDist(Point{5, 3}, a, b)
	if !almostEqual(d, 3, 1e-12) || !almostEqual(tt, 0.5, 1e-12) {
		t.Errorf("mid: d=%v t=%v", d, tt)
	}
	d, tt = SegmentDist(Point{-4, 3}, a, b)
	if !almostEqual(d, 5, 1e-12) || tt != 0 {
		t.Errorf("before start: d=%v t=%v", d, tt)
	}
	d, tt = SegmentDist(Point{14, 3}, a, b)
	if !almostEqual(d, 5, 1e-12) || tt != 1 {
		t.Errorf("past end: d=%v t=%v", d, tt)
	}
	// Degenerate segment.
	d, tt = SegmentDist(Point{1, 1}, a, a)
	if !almostEqual(d, math.Sqrt2, 1e-12) || tt != 0 {
		t.Errorf("degenerate: d=%v t=%v", d, tt)
	}
}
