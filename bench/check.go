package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	tempo "repro"
	"repro/internal/obsv"
)

// maxProblems caps how many failure descriptions a run keeps; the
// counts stay exact.
const maxProblems = 20

// checker counts simulations and the ones that fail a correctness
// check. A simulation fails when it returns an error, when its result
// breaks a counter-conservation law, or when its result digest differs
// from the first result seen under the same key — another repetition
// at the same seed or, on mc4-tempo, the serial reference run. Each
// simulation counts as failed at most once.
type checker struct {
	attempted, failed int
	first             map[string]string // key -> digest of its first result
	problems          []string
	// broken records a failure that is no single simulation's, such as a
	// figure that could not be regenerated.
	broken bool
}

func newChecker() *checker { return &checker{first: map[string]string{}} }

// add checks one simulation and returns its result digest ("" when the
// simulation returned an error).
func (c *checker) add(key string, res *tempo.Result, err error) string {
	c.attempted++
	if err != nil {
		c.reject(key, err.Error())
		return ""
	}
	d, err := digest(res)
	if err != nil {
		c.reject(key, err.Error())
		return ""
	}
	if v := violations(res); len(v) > 0 {
		c.reject(key, fmt.Sprintf("%d audit violations, first: %v", len(v), v[0]))
		return d
	}
	if prev, ok := c.first[key]; !ok {
		c.first[key] = d
	} else if prev != d {
		c.reject(key, fmt.Sprintf("digest %s differs from the first run's %s", d, prev))
	}
	return d
}

func (c *checker) reject(key, why string) {
	c.failed++
	c.note(key + ": " + why)
}

// fail records a failure that is no single simulation's.
func (c *checker) fail(why string) {
	c.broken = true
	c.note(why)
}

func (c *checker) note(problem string) {
	if len(c.problems) < maxProblems {
		c.problems = append(c.problems, problem)
	}
}

// ok reports whether every check passed.
func (c *checker) ok() bool { return c.failed == 0 && !c.broken }

// failedFrac is the share of attempted simulations that failed.
func (c *checker) failedFrac() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// violations runs the conservation audit on the result's merged totals,
// with the mechanism counters merged in so the mech/* laws apply, and
// checks every core's CPI stack against its cycle count on its own,
// where a merge could hide one core's surplus behind another's deficit.
func violations(res *tempo.Result) []obsv.AuditViolation {
	snap := obsv.StatsSnapshot(&res.Total)
	for name, v := range res.MechCounters {
		snap.Counters[name] = v
	}
	out := obsv.Audit(snap)
	for i := range res.Cores {
		c := &res.Cores[i]
		if attr := c.CPIAttributed(); attr != c.CPICycles {
			out = append(out, obsv.AuditViolation{
				Check:  "cpi-stack-sums-to-cycles",
				Detail: fmt.Sprintf("core %d: %d attributed cycles != %d core cycles", i, attr, c.CPICycles),
			})
		}
	}
	return out
}

// digest names a result by the SHA-256 of its JSON encoding, which
// covers every counter and sorts map keys, so equal digests mean
// bit-identical results. A result holding a NaN or an infinity cannot
// be encoded, and is an error.
func digest(res *tempo.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}
