// Command app is the only binary of the deadcode fixture.
package main

import (
	"fmt"

	"example.com/dc/lib"
)

func main() {
	s := lib.NewStack[int]()
	s.Add(lib.Apply(func(x int) int { return x }, 1))
	fmt.Println(lib.Total([]lib.Shape{lib.Square{Side: 2}}), lib.Celsius(21))
}
