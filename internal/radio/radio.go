// Package radio models the access-latency contribution of cellular radio
// technologies.
//
// The paper (§3.3, Fig 3) observes "very defined performance boundaries
// between different radio technologies": LTE fastest with low variance,
// ~50 ms more at the median for 3G (eHRPD / EVDO Rev. A), and close to a
// second for 2G 1xRTT; GPRS and EDGE are similarly slow on GSM carriers.
// Parameters follow Huang et al. (MobiSys'12), which the paper cites for
// LTE's low and stable radio access latency.
package radio

import (
	"fmt"
	"time"

	"cellcurtain/internal/stats"
)

// Tech is a radio access technology as reported by Android's telephony
// stack (the identifiers the paper's Fig 3 uses).
type Tech string

// Radio technologies observed in the paper's dataset.
const (
	LTE   Tech = "LTE"
	EHRPD Tech = "EHRPD"
	EVDOA Tech = "EVDO_A"
	OneX  Tech = "1xRTT"
	HSPAP Tech = "HSPAP"
	HSPA  Tech = "HSPA"
	HSDPA Tech = "HSDPA"
	HSUPA Tech = "HSUPA"
	UMTS  Tech = "UTMS" // spelled as in the paper's figures
	EDGE  Tech = "EDGE"
	GPRS  Tech = "GPRS"
)

// Model describes one technology's access behaviour.
type Model struct {
	Tech Tech
	// RTT is the distribution of one radio round trip in the connected /
	// high-power state.
	RTT stats.Dist
	// PromotionDelay is the extra delay incurred when the radio must be
	// promoted from idle to connected state (RRC state machine). The
	// paper's experiment issues a bootstrap ping precisely to absorb this.
	PromotionDelay stats.Dist
	// halfRTT is HalfRTT's distribution, boxed once per technology.
	halfRTT stats.Dist
}

// model builds a technology's Model.
func model(t Tech, rtt, promotion stats.Dist) Model {
	return Model{Tech: t, RTT: rtt, PromotionDelay: promotion, halfRTT: halve{rtt}}
}

// model table. Medians chosen to reproduce Fig 3's band ordering:
// LTE < HSPA+ < HSPA/HSDPA/HSUPA < UMTS/eHRPD/EVDO < EDGE < GPRS < 1xRTT.
var models = map[Tech]Model{
	LTE:   model(LTE, stats.NewLogNormal(34*time.Millisecond, 0.18, 15*time.Millisecond), stats.Normal{Mean: 260 * time.Millisecond, StdDev: 60 * time.Millisecond, Floor: 100 * time.Millisecond}),
	HSPAP: model(HSPAP, stats.NewLogNormal(55*time.Millisecond, 0.35, 25*time.Millisecond), stats.Normal{Mean: 600 * time.Millisecond, StdDev: 150 * time.Millisecond, Floor: 200 * time.Millisecond}),
	HSPA:  model(HSPA, stats.NewLogNormal(70*time.Millisecond, 0.40, 30*time.Millisecond), stats.Normal{Mean: 800 * time.Millisecond, StdDev: 200 * time.Millisecond, Floor: 250 * time.Millisecond}),
	HSDPA: model(HSDPA, stats.NewLogNormal(75*time.Millisecond, 0.40, 30*time.Millisecond), stats.Normal{Mean: 800 * time.Millisecond, StdDev: 200 * time.Millisecond, Floor: 250 * time.Millisecond}),
	HSUPA: model(HSUPA, stats.NewLogNormal(72*time.Millisecond, 0.40, 30*time.Millisecond), stats.Normal{Mean: 800 * time.Millisecond, StdDev: 200 * time.Millisecond, Floor: 250 * time.Millisecond}),
	UMTS:  model(UMTS, stats.NewLogNormal(95*time.Millisecond, 0.45, 40*time.Millisecond), stats.Normal{Mean: 1200 * time.Millisecond, StdDev: 300 * time.Millisecond, Floor: 400 * time.Millisecond}),
	EHRPD: model(EHRPD, stats.NewLogNormal(88*time.Millisecond, 0.40, 40*time.Millisecond), stats.Normal{Mean: 1000 * time.Millisecond, StdDev: 250 * time.Millisecond, Floor: 300 * time.Millisecond}),
	EVDOA: model(EVDOA, stats.NewLogNormal(92*time.Millisecond, 0.45, 40*time.Millisecond), stats.Normal{Mean: 1000 * time.Millisecond, StdDev: 250 * time.Millisecond, Floor: 300 * time.Millisecond}),
	EDGE:  model(EDGE, stats.NewLogNormal(400*time.Millisecond, 0.45, 150*time.Millisecond), stats.Normal{Mean: 1500 * time.Millisecond, StdDev: 400 * time.Millisecond, Floor: 500 * time.Millisecond}),
	GPRS:  model(GPRS, stats.NewLogNormal(600*time.Millisecond, 0.50, 250*time.Millisecond), stats.Normal{Mean: 2000 * time.Millisecond, StdDev: 500 * time.Millisecond, Floor: 700 * time.Millisecond}),
	OneX:  model(OneX, stats.NewLogNormal(900*time.Millisecond, 0.40, 400*time.Millisecond), stats.Normal{Mean: 2500 * time.Millisecond, StdDev: 600 * time.Millisecond, Floor: 900 * time.Millisecond}),
}

// Lookup returns the model for a technology.
func Lookup(t Tech) (Model, error) {
	m, ok := models[t]
	if !ok {
		return Model{}, fmt.Errorf("radio: unknown technology %q", t)
	}
	return m, nil
}

// MustLookup is Lookup for static configuration; it panics on unknown
// technologies.
func MustLookup(t Tech) Model {
	m, err := Lookup(t)
	if err != nil {
		panic(err)
	}
	return m
}

// All returns every modeled technology, 4G first.
func All() []Tech {
	return []Tech{LTE, HSPAP, HSPA, HSDPA, HSUPA, UMTS, EHRPD, EVDOA, EDGE, GPRS, OneX}
}

// CDMAFamily and GSMFamily partition 2/3G technologies by carrier type:
// CDMA carriers (Verizon, Sprint) fall back to eHRPD/EVDO/1xRTT, while
// GSM carriers (AT&T, T-Mobile, the SK carriers) fall back to the
// UMTS/HSPA family, as visible in the paper's Fig 3 panels.
func CDMAFamily() []Tech { return []Tech{LTE, EHRPD, EVDOA, OneX} }

// GSMFamily returns the technologies seen on GSM/UMTS carriers.
func GSMFamily() []Tech { return []Tech{LTE, HSPAP, HSPA, HSDPA, UMTS, EDGE, GPRS} }

// HalfRTT returns a distribution of one-way radio latency for use as a
// vnet segment (the fabric samples each direction independently). Every
// call for one technology returns the same boxed value.
func (m Model) HalfRTT() stats.Dist { return m.halfRTT }

type halve struct{ d stats.Dist }

func (h halve) Sample(r *stats.RNG) time.Duration { return h.d.Sample(r) / 2 }
func (h halve) Median() time.Duration             { return h.d.Median() / 2 }
