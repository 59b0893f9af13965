// Package server stands in for a package cmd/ckptd links: the planted
// imports of paper-repro packages must be reported, the rest not.
package server

import (
	"net"

	"example.com/internal/checkpoint"
	"example.com/internal/dedup"      // want:layering
	dev "example.com/internal/device" // want:layering
	"example.com/internal/wire"

	"example.com/internal/hashmap" //ckptlint:ignore layering deliberate exception with a reason
)

var (
	_ net.Conn
	_ checkpoint.Diff
	_ dedup.Options
	_ dev.Device
	_ wire.Frame
	_ hashmap.Map
)
