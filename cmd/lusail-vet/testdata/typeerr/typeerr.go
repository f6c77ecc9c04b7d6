// Package typeerr does not type-check: lusail-vet must report the error
// and exit 1.
package typeerr

var n int = "not an int"
