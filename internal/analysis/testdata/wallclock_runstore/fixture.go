// Fixture: the durable run store. Loaded as caribou/internal/runstore
// (not wallclock-exempt): blob content is addressed by run configuration
// and never stamped, so a bare time.Now in the store is a finding.
package fixture

import "time"

// stamp reads the wall clock inside the store package: a finding.
func stamp() int64 {
	return time.Now().Unix() // want wallclock "time.Now reads the wall clock"
}
