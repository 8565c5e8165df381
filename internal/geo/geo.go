// Package geo provides the planar geometry primitives used throughout the
// NetClus reproduction: points, distances, bounding boxes and linear
// interpolation along segments.
//
// All synthetic networks live on a local planar projection where coordinates
// are expressed directly in kilometres. This keeps every distance in the
// system (edge weights, coverage thresholds τ, cluster radii R) in a single
// unit and avoids repeated spherical trigonometry in hot loops. A haversine
// helper is still provided for ingesting real latitude/longitude traces.
package geo

import (
	"fmt"
	"math"
)

// Point is a position on the local planar projection, in kilometres.
type Point struct {
	X float64 // east-west, km
	Y float64 // north-south, km
}

// Dist returns the Euclidean distance between p and q in kilometres.
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// DistSq returns the squared Euclidean distance between p and q. It is the
// preferred comparator in nearest-neighbour loops where the square root is
// not needed.
func (p Point) DistSq(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Add returns the vector sum p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector difference p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Norm returns the Euclidean norm of p viewed as a vector.
func (p Point) Norm() float64 { return math.Sqrt(p.X*p.X + p.Y*p.Y) }

// Lerp linearly interpolates between p and q; t=0 yields p, t=1 yields q.
func Lerp(p, q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.4f, %.4f)", p.X, p.Y) }

// Rect is an axis-aligned bounding box. Min is the lower-left corner and Max
// the upper-right corner; a Rect with Min == Max contains exactly one point.
type Rect struct {
	Min, Max Point
}

// EmptyRect returns a degenerate rectangle that contains nothing and expands
// correctly under Extend.
func EmptyRect() Rect {
	return Rect{
		Min: Point{math.Inf(1), math.Inf(1)},
		Max: Point{math.Inf(-1), math.Inf(-1)},
	}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Extend grows r to include p and returns the result.
func (r Rect) Extend(p Point) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, p.X), math.Min(r.Min.Y, p.Y)},
		Max: Point{math.Max(r.Max.X, p.X), math.Max(r.Max.Y, p.Y)},
	}
}

// Union returns the smallest Rect containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return r.Extend(s.Min).Extend(s.Max)
}

// Width returns the horizontal extent of r in kilometres.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r in kilometres.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r in square kilometres. Degenerate (empty)
// rectangles report zero.
func (r Rect) Area() float64 {
	w, h := r.Width(), r.Height()
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// Center returns the geometric center of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Buffer returns r expanded by d kilometres on every side.
func (r Rect) Buffer(d float64) Rect {
	return Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
}

const earthRadiusKm = 6371.0088

// Haversine returns the great-circle distance in kilometres between two
// latitude/longitude pairs given in degrees. It is used only when ingesting
// real-world GPS traces; all internal computation is planar.
func Haversine(lat1, lon1, lat2, lon2 float64) float64 {
	const deg = math.Pi / 180
	phi1, phi2 := lat1*deg, lat2*deg
	dPhi := (lat2 - lat1) * deg
	dLam := (lon2 - lon1) * deg
	a := math.Sin(dPhi/2)*math.Sin(dPhi/2) +
		math.Cos(phi1)*math.Cos(phi2)*math.Sin(dLam/2)*math.Sin(dLam/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(a)))
}

// ProjectLatLon converts a latitude/longitude pair (degrees) to a local
// planar point in kilometres relative to the given origin using an
// equirectangular approximation, adequate at city scale (<100 km).
func ProjectLatLon(lat, lon, originLat, originLon float64) Point {
	const deg = math.Pi / 180
	x := (lon - originLon) * deg * earthRadiusKm * math.Cos(originLat*deg)
	y := (lat - originLat) * deg * earthRadiusKm
	return Point{X: x, Y: y}
}

// SegmentDist returns the shortest distance from point p to the segment ab,
// along with the parameter t in [0,1] of the closest point on the segment.
func SegmentDist(p, a, b Point) (dist float64, t float64) {
	ab := b.Sub(a)
	den := ab.X*ab.X + ab.Y*ab.Y
	if den == 0 {
		return p.Dist(a), 0
	}
	t = ((p.X-a.X)*ab.X + (p.Y-a.Y)*ab.Y) / den
	t = math.Max(0, math.Min(1, t))
	return p.Dist(Lerp(a, b, t)), t
}
