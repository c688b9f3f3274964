package radio

import "math"

// pow10 is math.Pow(10, y). On s390x math.Pow runs an assembly archPow,
// not the Go algorithm that pow10.go reproduces, so it is called directly.
func pow10(y float64) float64 { return math.Pow(10, y) }
