// Package layering is a golden fixture for the layering check. The
// module root is in neither stratum: it may import both.
package layering

import (
	_ "example.com/internal/dedup"
	_ "example.com/internal/server"
)
