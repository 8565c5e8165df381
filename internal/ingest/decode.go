package ingest

import (
	"fmt"
	"math"

	"netclus/internal/geo"
	"netclus/internal/trajectory"
	"netclus/internal/wal"
)

// Wire format: one JSON object per NDJSON line.
//
//	{"id":"veh-17","points":[{"x":1.2,"y":3.4,"t":10.0}, …]}
//	{"points":[{"lat":39.91,"lon":116.40,"t":5}, …]}
//
// Each point carries either planar x/y (kilometres, the dataset's native
// frame) or lat/lon degrees projected through geo.ProjectLatLon with the
// configured origin — never both. t (seconds, optional) defaults to the
// point's index. id is an opaque client tag echoed in the verdict.
type wirePoint struct {
	X   *float64 `json:"x,omitempty"`
	Y   *float64 `json:"y,omitempty"`
	Lat *float64 `json:"lat,omitempty"`
	Lon *float64 `json:"lon,omitempty"`
	T   *float64 `json:"t,omitempty"`
}

type wireTrace struct {
	ID     string      `json:"id,omitempty"`
	Points []wirePoint `json:"points"`
}

// decoded is the outcome of decoding one line: either a trace (code
// empty) or a rejection code with detail.
type decoded struct {
	id     string
	trace  trajectory.GPSTrace
	points int
	code   string
	err    string
}

func reject(id, code, format string, args ...any) decoded {
	return decoded{id: id, code: code, err: fmt.Sprintf(format, args...)}
}

// decodeLine parses and validates one NDJSON line. It never returns a
// partially valid trace: one bad point rejects the whole line, keeping
// the accepted/rejected accounting unambiguous.
func decodeLine(raw []byte, opts Options) decoded {
	var wt wireTrace
	if err := wal.StrictUnmarshal(raw, &wt); err != nil {
		return reject("", CodeBadJSON, "%v", err)
	}
	if len(wt.Points) == 0 {
		return reject(wt.ID, CodeEmptyTrace, "trace has no points")
	}
	if len(wt.Points) > opts.MaxPointsPerTrace {
		return reject(wt.ID, CodeTooManyPoints, "%d points exceeds cap %d", len(wt.Points), opts.MaxPointsPerTrace)
	}
	pts := make([]trajectory.GPSPoint, 0, len(wt.Points))
	for i, wp := range wt.Points {
		planar := wp.X != nil || wp.Y != nil
		geodetic := wp.Lat != nil || wp.Lon != nil
		var pos geo.Point
		switch {
		case planar && geodetic:
			return reject(wt.ID, CodeBadPoint, "point %d mixes x/y and lat/lon", i)
		case planar:
			if wp.X == nil || wp.Y == nil {
				return reject(wt.ID, CodeBadPoint, "point %d needs both x and y", i)
			}
			if !finite(*wp.X) || !finite(*wp.Y) {
				return reject(wt.ID, CodeBadPoint, "point %d has non-finite x/y", i)
			}
			pos = geo.Point{X: *wp.X, Y: *wp.Y}
		case geodetic:
			if wp.Lat == nil || wp.Lon == nil {
				return reject(wt.ID, CodeBadPoint, "point %d needs both lat and lon", i)
			}
			if !finite(*wp.Lat) || !finite(*wp.Lon) {
				return reject(wt.ID, CodeBadPoint, "point %d has non-finite lat/lon", i)
			}
			if *wp.Lat < -90 || *wp.Lat > 90 || *wp.Lon < -180 || *wp.Lon > 180 {
				return reject(wt.ID, CodeBadPoint, "point %d lat/lon out of range", i)
			}
			pos = geo.ProjectLatLon(*wp.Lat, *wp.Lon, opts.OriginLat, opts.OriginLon)
		default:
			return reject(wt.ID, CodeBadPoint, "point %d has no coordinates", i)
		}
		t := float64(i)
		if wp.T != nil {
			if !finite(*wp.T) {
				return reject(wt.ID, CodeBadPoint, "point %d has non-finite t", i)
			}
			t = *wp.T
		}
		pts = append(pts, trajectory.GPSPoint{Pos: pos, Time: t})
	}
	return decoded{id: wt.ID, trace: trajectory.GPSTrace{Points: pts}, points: len(pts)}
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
