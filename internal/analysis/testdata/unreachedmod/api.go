// Package caribou is the fixture's root package: its exported API is a
// root of the unreached check.
package caribou

import "caribou/internal/lib"

// Version is root-package API.
func Version() string { return lib.APIHelper() }
