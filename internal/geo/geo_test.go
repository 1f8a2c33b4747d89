package geo

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDistanceKnownPairs(t *testing.T) {
	ny, _ := CityByName("new-york")
	la, _ := CityByName("los-angeles")
	d := DistanceKm(ny.Loc, la.Loc)
	// Great-circle NY–LA is ~3940 km.
	if d < 3800 || d > 4100 {
		t.Fatalf("NY–LA distance = %.0f km, want ~3940", d)
	}
	seoul, _ := CityByName("seoul")
	busan, _ := CityByName("busan")
	d = DistanceKm(seoul.Loc, busan.Loc)
	// ~325 km.
	if d < 280 || d > 370 {
		t.Fatalf("Seoul–Busan distance = %.0f km, want ~325", d)
	}
}

func TestDistanceProperties(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{math.Mod(lat1, 90), math.Mod(lon1, 180)}
		b := Point{math.Mod(lat2, 90), math.Mod(lon2, 180)}
		if math.IsNaN(a.Lat) || math.IsNaN(a.Lon) || math.IsNaN(b.Lat) || math.IsNaN(b.Lon) {
			return true
		}
		dab := DistanceKm(a, b)
		dba := DistanceKm(b, a)
		// symmetry, non-negativity, identity, bounded by half circumference
		return dab >= 0 && math.Abs(dab-dba) < 1e-6 &&
			DistanceKm(a, a) < 1e-6 && dab <= 20038
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPropagationRTT(t *testing.T) {
	ny, _ := CityByName("new-york")
	la, _ := CityByName("los-angeles")
	rtt := PropagationRTT(ny.Loc, la.Loc)
	// ~3940 km * 1.6 / 200 km/ms one-way => ~31.5 ms one way, ~63 ms RTT.
	if rtt < 50*time.Millisecond || rtt > 80*time.Millisecond {
		t.Fatalf("NY–LA RTT = %v, want ~63 ms", rtt)
	}
	if PropagationRTT(ny.Loc, ny.Loc) != 0 {
		t.Fatal("same-point RTT must be zero")
	}
}

func TestCitiesIn(t *testing.T) {
	us := CitiesIn("US")
	kr := CitiesIn("KR")
	if len(us) < 20 {
		t.Fatalf("US city DB too small: %d", len(us))
	}
	if len(kr) < 8 {
		t.Fatalf("KR city DB too small: %d", len(kr))
	}
	for _, c := range kr {
		if c.Country != "KR" {
			t.Fatalf("CitiesIn(KR) returned %+v", c)
		}
	}
	if len(Cities()) != len(us)+len(kr) {
		t.Fatal("Cities() should return everything")
	}
}

func TestCityByNameUnknown(t *testing.T) {
	if _, err := CityByName("atlantis"); err == nil {
		t.Fatal("unknown city should error")
	}
}

func TestCitiesCopyIsIndependent(t *testing.T) {
	a := Cities()
	a[0].Name = "mutated"
	b := Cities()
	if b[0].Name == "mutated" {
		t.Fatal("Cities must return a copy")
	}
}
