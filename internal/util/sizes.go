// Package util provides small shared helpers: byte-size constants,
// summary statistics, and deterministic RNG plumbing used
// across the BlobSeer reproduction.
package util

// Byte size constants. The paper's experiments use 64 MB blocks (the
// HDFS chunk size) and 4 KB fine-grain reads.
const (
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
	TB int64 = 1 << 40
)

// CeilDiv returns ceil(a/b) for positive b.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("util: CeilDiv with non-positive divisor")
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int64) int64 {
	if n <= 1 {
		return 1
	}
	p := int64(1)
	for p < n {
		p <<= 1
	}
	return p
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int64) bool { return n > 0 && n&(n-1) == 0 }
