package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/wasp-stream/wasp/internal/stream"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Tweet is one synthetic geo-tagged tweet.
type Tweet struct {
	ID      int64
	UserID  int64
	Country string
	Lang    string
	Topic   string
	Time    vclock.Time
	// CountryID and TopicID are the stream key ids (see keyID) of Country
	// and Topic; the generator fills them, and a tweet built without them
	// (0: no id) is keyed by the strings alone.
	CountryID uint32
	TopicID   uint32
}

// Country captures the spatial skew of the synthetic Twitter trace: a
// weight (share of global volume) and a UTC offset driving its local
// day/night cycle.
type Country struct {
	Code      string
	Weight    float64
	UTCOffset time.Duration
	Lang      string
}

// countries approximates the global Twitter geography reported by
// Leetaru et al. (cited in §2.2): a few countries dominate volume, spread
// across time zones.
var countries = [...]Country{
	{Code: "us", Weight: 0.30, UTCOffset: -6 * time.Hour, Lang: "en"},
	{Code: "jp", Weight: 0.15, UTCOffset: 9 * time.Hour, Lang: "ja"},
	{Code: "gb", Weight: 0.10, UTCOffset: 0, Lang: "en"},
	{Code: "br", Weight: 0.10, UTCOffset: -3 * time.Hour, Lang: "pt"},
	{Code: "id", Weight: 0.10, UTCOffset: 7 * time.Hour, Lang: "id"},
	{Code: "in", Weight: 0.10, UTCOffset: 5*time.Hour + 30*time.Minute, Lang: "hi"},
	{Code: "de", Weight: 0.08, UTCOffset: time.Hour, Lang: "de"},
	{Code: "fr", Weight: 0.07, UTCOffset: time.Hour, Lang: "fr"},
}

// zipfS is the exponent of the Zipfian topic popularity.
const zipfS = 1.2

// TwitterConfig parameterises the tweet generator.
type TwitterConfig struct {
	Seed int64
	// Topics is the topic vocabulary size (default 1000); popularity is
	// Zipfian.
	Topics int
	// Rate is global tweets/s (default 10000).
	Rate float64
	// Diurnal applies the 2× day/night pattern per country's local time
	// when true.
	Diurnal bool
	// Duration bounds the generated event times to [0, Duration).
	Duration time.Duration
}

func (c TwitterConfig) withDefaults() TwitterConfig {
	if c.Topics == 0 {
		c.Topics = 1000
	}
	if c.Rate == 0 {
		c.Rate = 10000
	}
	return c
}

// GenerateTweets produces a time-ordered synthetic tweet trace. The trace
// is a pure function of cfg (randomness comes from a fresh source seeded
// with cfg.Seed).
func GenerateTweets(cfg TwitterConfig) []Tweet {
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := cfg.withDefaults()
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(c.Topics-1))
	// Zipf draws topic ids in [0, Topics): each id's key is formatted on
	// its first draw.
	topics := make([]string, max(c.Topics, 0))
	picker := diurnalPicker{cell: -1}

	n := int(c.Rate * c.Duration.Seconds())
	tweets := make([]Tweet, n)
	interval := vclock.Time(float64(time.Second) / c.Rate)
	var at vclock.Time
	for i := 0; i < n; i++ {
		// The rng order is the order below: the country is drawn before the
		// user id, and the user id before the topic.
		var ci int
		if u := rng.Float64(); c.Diurnal {
			ci = picker.pick(u, at)
		} else {
			ci = pickCountry(u, at, false)
		}
		userID := rng.Int63n(1 << 20)
		topic := int64(zipf.Uint64())
		tweets[i] = Tweet{
			ID:        int64(i),
			UserID:    userID,
			Country:   countries[ci].Code,
			Lang:      countries[ci].Lang,
			Topic:     denseKey(topics, "t%04d", topic),
			Time:      at,
			CountryID: keyID(int64(ci)),
			TopicID:   keyID(topic),
		}
		at += interval
	}
	return tweets
}

// denseKey returns id's key in format, formatting it into keys on first
// use. An id outside keys is formatted on every call: for topics, only a
// negative Topics, which Zipf reads as a vocabulary of 2^64, draws one.
func denseKey(keys []string, format string, id int64) string {
	if id < 0 || id >= int64(len(keys)) {
		return fmt.Sprintf(format, id)
	}
	if keys[id] == "" {
		keys[id] = fmt.Sprintf(format, id)
	}
	return keys[id]
}

// countryWeights are the countries' base weights, in order.
var countryWeights = func() (w [len(countries)]float64) {
	for i, c := range countries {
		w[i] = c.Weight
	}
	return w
}()

// pickCountry is the exact draw of a country (its index in countries) for
// u = rng.Float64(): the first country at which u times the weights' sum,
// less the weights up to it, is <= 0. The weights are the base weights,
// each times its country's diurnal factor at `at` when diurnal is set (day
// hours carry 2× the night volume).
func pickCountry(u float64, at vclock.Time, diurnal bool) int {
	weights := countryWeights
	if diurnal {
		for i, c := range countries {
			weights[i] *= diurnalFactor(at, c.UTCOffset)
		}
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	x := u * sum
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return len(countries) - 1
}

// bandDelta bounds how far diurnalFactor moves within one second of event
// time: amplitude 1/3 times the phase's 2π per day, plus 1e-9 for the
// rounding of the cosine and its phase.
const bandDelta = 2*math.Pi/3/(24*60*60) + 1e-9

// diurnalPicker returns pickCountry's diurnal draw without its eight
// cosines per tweet. For the one-second cell of event time that holds the
// tweet, starting at t0, country i's weight lies in the band
// W_i·(f_i(t0) ± bandDelta). pickCountry's x after its (k+1)-th
// subtraction is, in real arithmetic, u·R_k − (1−u)·C_k, where C_k sums
// the weights up to k and R_k those after it; the band bounds it from
// both sides. A draw returns at once when those bounds settle each of the
// loop's comparisons by more than 1e-9 of the weights' sum, far beyond the
// loop's own rounding; any other draw, about 120 in a million, runs
// pickCountry on the same u.
type diurnalPicker struct {
	// cell is the start of the cell the bounds below hold; -1, no cell's
	// start, before the first draw.
	cell vclock.Time
	// cLo[k], cHi[k] bound C_k and rLo[k], rHi[k] bound R_k.
	cLo, cHi, rLo, rHi [len(countries) - 1]float64
	margin             float64
}

func (p *diurnalPicker) pick(u float64, at vclock.Time) int {
	if i, ok := p.settle(u, at); ok {
		return i
	}
	return pickCountry(u, at, true)
}

// settle returns pickCountry's diurnal draw for u at `at`, and false when
// the cell's bounds leave one of its comparisons open.
func (p *diurnalPicker) settle(u float64, at vclock.Time) (int, bool) {
	if cell := at - at%vclock.Time(time.Second); cell != p.cell {
		p.fill(cell)
	}
	v := 1 - u
	for k := range p.cLo {
		if u*p.rLo[k]-v*p.cHi[k] > p.margin {
			continue // x > 0 for every weight in the band: the loop goes on
		}
		if u*p.rHi[k]-v*p.cLo[k] < -p.margin {
			return k, true // x <= 0 for every weight in the band
		}
		return 0, false
	}
	return len(countries) - 1, true
}

// weightBand returns the band of every country's diurnal weight over the
// cell starting at t0.
func weightBand(t0 vclock.Time) (lo, hi [len(countries)]float64) {
	for i, c := range countries {
		f := diurnalFactor(t0, c.UTCOffset)
		lo[i], hi[i] = c.Weight*(f-bandDelta), c.Weight*(f+bandDelta)
	}
	return lo, hi
}

// fill computes the bounds for the cell starting at t0.
func (p *diurnalPicker) fill(t0 vclock.Time) {
	lo, hi := weightBand(t0)
	var cLo, cHi, rLo, rHi float64
	for k := range p.cLo {
		cLo, cHi = cLo+lo[k], cHi+hi[k]
		p.cLo[k], p.cHi[k] = cLo, cHi
		j := len(countries) - 1 - k
		rLo, rHi = rLo+lo[j], rHi+hi[j]
		p.rLo[j-1], p.rHi[j-1] = rLo, rHi
	}
	p.cell, p.margin = t0, 1e-9*(cLo+lo[len(countries)-1])
}

// diurnalFactor returns the 2×-day/1×-night raised-cosine factor for a
// country's local time-of-day (mean 1 over a day).
func diurnalFactor(at vclock.Time, utcOffset time.Duration) float64 {
	local := at + vclock.Time(utcOffset)
	day := vclock.Time(24 * time.Hour)
	phase := float64(((local%day)+day)%day) / float64(day)
	// Trough at local 03:00, peak at 15:00; amplitude 1/3 gives a 2:1
	// peak/trough ratio around mean 1.
	const amp = 1.0 / 3
	return 1 - amp*math.Cos(2*math.Pi*(phase-3.0/24))
}

// TweetStream converts tweets into stream events keyed by country.
func TweetStream(tweets []Tweet) []stream.Event {
	out := make([]stream.Event, len(tweets))
	for i, tw := range tweets {
		out[i] = stream.Event{Time: tw.Time, Key: tw.Country, KeyID: tw.CountryID, Value: tw}
	}
	return out
}

// CountryShares returns the fraction of tweets per country.
func CountryShares(tweets []Tweet) map[string]float64 {
	counts := make(map[string]float64)
	for _, tw := range tweets {
		counts[tw.Country]++
	}
	for k := range counts {
		counts[k] /= float64(len(tweets))
	}
	return counts
}
