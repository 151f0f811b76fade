// Fixture: command binaries are not approved concurrency packages.
// Loaded as caribou/cmd/caribou-server by the test harness: an unannotated
// go statement (a load-generator worker) is a finding; the same pattern
// under an allow comment with a reason is suppressed.
package fixture

func drive(tenants chan int, done chan struct{}) {
	go func() { // want goroutines "go statement outside the approved concurrency packages"
		for range tenants {
		}
		done <- struct{}{}
	}()
	<-done
}

func drivePool(tenants chan int, done chan struct{}) {
	//caribou:allow goroutines load-generator worker pool drives concurrent tenants by design
	go func() {
		for range tenants {
		}
		done <- struct{}{}
	}()
	<-done
}
