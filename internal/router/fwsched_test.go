package router

import "testing"

// TestFirmwareSteadiness pins the steadiness classification the
// macro-stepper reasons on: streaming and blocked-on-protocol phases
// are steady, while the local-memory buffering phases (two cycles per
// word, §4.4), the cache-probing lookup and the cipher are not.
func TestFirmwareSteadiness(t *testing.T) {
	for _, c := range []struct {
		kind   string
		steady []bool
		phase  int
		want   bool
	}{
		{"ingress idle", ingSteady[:], ingPhaseIdle, true},
		{"ingress stream", ingSteady[:], ingPhaseStream, true},
		{"ingress ingest", ingSteady[:], ingPhaseIngest, false},
		{"xbar hdr", xbarSteady[:], xbarPhaseHdr, true},
		{"xbar stream", xbarSteady[:], xbarPhaseStream, true},
		{"egress hdr", egrSteady[:], egrPhaseHdr, true},
		{"egress cut", egrSteady[:], egrPhaseCut, true},
		{"egress asm", egrSteady[:], egrPhaseAsm, false},
		{"egress crypto", egrSteady[:], egrPhaseCrypto, false},
		{"lookup await", lkSteady[:], lkPhaseAwait, true},
		{"lookup probe", lkSteady[:], lkPhaseProbe, false},
	} {
		if got := c.steady[c.phase]; got != c.want {
			t.Errorf("%s phase steady = %v, want %v", c.kind, got, c.want)
		}
	}
}
