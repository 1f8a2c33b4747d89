// Package geo models geography for the cellcurtain simulator: locations,
// great-circle distance and a distance→latency model for wide-area paths.
//
// The paper's two markets are the United States and South Korea; the
// package ships a small city database for both, used to place carrier
// egress points, DNS resolver clusters, CDN replicas and clients.
package geo

import (
	"fmt"
	"math"
	"time"
)

// Point is a location on Earth.
type Point struct {
	Lat, Lon float64
}

// earthRadiusKm is the mean Earth radius.
const earthRadiusKm = 6371.0

// DistanceKm returns the great-circle (haversine) distance between two
// points in kilometres.
func DistanceKm(a, b Point) float64 {
	toRad := func(d float64) float64 { return d * math.Pi / 180 }
	dLat := toRad(b.Lat - a.Lat)
	dLon := toRad(b.Lon - a.Lon)
	la1, la2 := toRad(a.Lat), toRad(b.Lat)
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// PropagationRTT estimates the round-trip propagation latency between two
// points over terrestrial fiber. Light in fiber travels at roughly 2/3 c;
// real paths are not geodesics, so an inflation factor accounts for
// routing stretch (Zarifis et al. report significant path inflation for
// mobile traffic; we default to a conservative 1.6x for wired segments).
func PropagationRTT(a, b Point) time.Duration {
	const fiberKmPerMs = 200.0 // ~ c * 2/3, one way
	const pathInflation = 1.6
	oneWayMs := DistanceKm(a, b) * pathInflation / fiberKmPerMs
	return time.Duration(2 * oneWayMs * float64(time.Millisecond))
}

// City is a named location in one of the paper's two markets.
type City struct {
	Name    string
	Country string // "US" or "KR"
	Loc     Point
}

// Cities returns the built-in city database. The slice is freshly
// allocated; callers may reorder it.
func Cities() []City {
	out := make([]City, len(cityDB))
	copy(out, cityDB)
	return out
}

// CitiesIn returns the cities in the given country code.
func CitiesIn(country string) []City {
	var out []City
	for _, c := range cityDB {
		if c.Country == country {
			out = append(out, c)
		}
	}
	return out
}

// CityByName looks up a city by name.
func CityByName(name string) (City, error) {
	for _, c := range cityDB {
		if c.Name == name {
			return c, nil
		}
	}
	return City{}, fmt.Errorf("geo: unknown city %q", name)
}

var cityDB = []City{
	// United States (metro areas commonly hosting cellular egress and CDN PoPs).
	{"new-york", "US", Point{40.7128, -74.0060}},
	{"chicago", "US", Point{41.8781, -87.6298}},
	{"los-angeles", "US", Point{34.0522, -118.2437}},
	{"dallas", "US", Point{32.7767, -96.7970}},
	{"atlanta", "US", Point{33.7490, -84.3880}},
	{"seattle", "US", Point{47.6062, -122.3321}},
	{"san-jose", "US", Point{37.3382, -121.8863}},
	{"denver", "US", Point{39.7392, -104.9903}},
	{"miami", "US", Point{25.7617, -80.1918}},
	{"washington-dc", "US", Point{38.9072, -77.0369}},
	{"houston", "US", Point{29.7604, -95.3698}},
	{"phoenix", "US", Point{33.4484, -112.0740}},
	{"boston", "US", Point{42.3601, -71.0589}},
	{"philadelphia", "US", Point{39.9526, -75.1652}},
	{"minneapolis", "US", Point{44.9778, -93.2650}},
	{"detroit", "US", Point{42.3314, -83.0458}},
	{"st-louis", "US", Point{38.6270, -90.1994}},
	{"kansas-city", "US", Point{39.0997, -94.5786}},
	{"salt-lake-city", "US", Point{40.7608, -111.8910}},
	{"portland", "US", Point{45.5152, -122.6784}},
	{"san-diego", "US", Point{32.7157, -117.1611}},
	{"charlotte", "US", Point{35.2271, -80.8431}},
	{"nashville", "US", Point{36.1627, -86.7816}},
	{"pittsburgh", "US", Point{40.4406, -79.9959}},
	{"cleveland", "US", Point{41.4993, -81.6944}},
	{"orlando", "US", Point{28.5383, -81.3792}},
	{"sacramento", "US", Point{38.5816, -121.4944}},
	{"las-vegas", "US", Point{36.1699, -115.1398}},
	{"indianapolis", "US", Point{39.7684, -86.1581}},
	{"columbus", "US", Point{39.9612, -82.9988}},
	// South Korea.
	{"seoul", "KR", Point{37.5665, 126.9780}},
	{"busan", "KR", Point{35.1796, 129.0756}},
	{"incheon", "KR", Point{37.4563, 126.7052}},
	{"daegu", "KR", Point{35.8714, 128.6014}},
	{"daejeon", "KR", Point{36.3504, 127.3845}},
	{"gwangju", "KR", Point{35.1595, 126.8526}},
	{"suwon", "KR", Point{37.2636, 127.0286}},
	{"ulsan", "KR", Point{35.5384, 129.3114}},
	{"jeonju", "KR", Point{35.8242, 127.1480}},
	{"cheongju", "KR", Point{36.6424, 127.4890}},
}
