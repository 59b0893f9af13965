// Package experiments stands in for the paper-repro stratum, which may
// import the service packages (and its own) freely.
package experiments

import (
	_ "example.com/internal/checkpoint"
	_ "example.com/internal/dedup"
	_ "example.com/internal/server"
)
