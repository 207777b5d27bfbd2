// Package allowed is allowlisted wholesale.
package allowed

func Nobody() {}
