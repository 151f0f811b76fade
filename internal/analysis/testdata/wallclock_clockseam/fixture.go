// Fixture: the control plane's clock seam. Loaded as
// caribou/internal/controlplane (not wallclock-exempt): time flows
// through an injected func() time.Time, so calling it is clean; handing
// over the real clock is the one unavoidable wall-clock site and carries
// an allow comment with a reason; a bare time.Now anywhere else in the
// package remains a finding.
package fixture

import "time"

type config struct {
	clock func() time.Time
}

// serve stamps serving metadata through the seam: no findings, whatever
// clock was injected.
func serve(cfg config) time.Time {
	return cfg.clock()
}

// realClock is the server binary's injection site: the single annotated
// wall-clock reference behind the seam.
func realClock() config {
	//caribou:allow wallclock serving-edge clock stamps served_at metadata only; plan content never reads it
	return config{clock: time.Now}
}

// leaky bypasses the seam: still a finding.
func leaky() time.Time {
	return time.Now() // want wallclock "time.Now reads the wall clock"
}
