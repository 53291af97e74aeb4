// Test corpus for the determinism analyzer's entropy and wall-clock rules,
// in the shape of a fault schedule: every decision must be a pure function
// of (seed, point, label, n), so no rand stream, seeded or not, and no
// clock reading may reach one.
//
//oevet:deterministic-package
package fault

import (
	crand "crypto/rand"
	"math/rand"
	"time"
)

func globalRand() int {
	return rand.Intn(10) // want `call to rand\.Intn in a deterministic package`
}

func seededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // want `call to rand\.New in a deterministic package` `call to rand\.NewSource in a deterministic package`
	return r.Intn(10)                   // want `call to \(rand stream\)\.Intn in a deterministic package`
}

func osEntropy(buf []byte) {
	crand.Read(buf) // want `call to crypto/rand Read in a deterministic package`
}

func wallClock() int64 {
	return time.Now().UnixNano() // want `call to time\.Now in a deterministic package`
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `call to time\.Since in a deterministic package`
}

func sleepIsFine(d time.Duration) { // ok: executing a delay is deterministic
	time.Sleep(d)
}

// statelessHash is the sanctioned shape: a pure function of its inputs.
func statelessHash(seed, point, label, n uint64) float64 {
	x := splitmix64(seed ^ splitmix64(point^splitmix64(label^splitmix64(n))))
	return float64(x>>11) / float64(1<<53)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
