package fixture

import "fmt"

type point struct{ x, y float64 }

func run() {}

//perf:hot
func kernel(dst, src []float64) []float64 {
	buf := make([]float64, len(src)) // want `allocates with make`
	_ = buf
	dst = append(dst, 1) // want `may grow its backing array`
	p := new(point)      // want `allocates with new`
	_ = p
	s := []int{1, 2} // want `allocates a slice`
	_ = s
	m := map[string]int{} // want `allocates a map`
	_ = m
	h := &point{x: 1} // want `heap-allocates a composite literal`
	_ = h
	v := point{x: 2} // clean: stack value
	_ = v
	f := func() {} // want `captures a closure`
	f()
	go run()           // want `spawns a goroutine`
	fmt.Println(v.x)   // want `boxes a value into an interface`
	fmt.Println("lit") // clean: constants box to statics
	for i := range dst {
		dst[i] = src[i] * 2 // clean: the steady-state loop
	}
	return dst
}

//perf:hot
func concat(a, b string) string {
	return a + b // want `concatenates strings`
}

const greeting = "hello, "

//perf:hot
func constConcat() string {
	return greeting + "world" // clean: constant-folded
}

//perf:hot
func toBytes(s string) []byte {
	return []byte(s) // want `copies between string and slice`
}

//perf:hot
func itoa(n int) string {
	return string(rune(n)) // want `builds a new string`
}

//perf:hot
func scaleInto[F float32 | float64](dst []F, k float64) {
	kf := F(k) // clean: a conversion to a type parameter is not a box
	for i := range dst {
		dst[i] *= kf * F(i)
	}
	fmt.Println(kf) // want `boxes a value into an interface`
}

// cold is unmarked and allocates freely.
func cold() []int {
	return append(make([]int, 0, 4), 1)
}
