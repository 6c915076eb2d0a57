package nn

import (
	"math/rand"
	"testing"
)

// FuzzNetworkRun feeds Network.Run host inputs of arbitrary element type
// and length. Run derives its image count from the slice length, so it
// must accept exactly a whole number of images, 1..Batch(), of the
// model's element type, and return an error for anything else: empty, a
// partial image, more images than the capacity, another element type, a
// nil or non-slice value. After every input, accepted or not, a valid
// k-image run must still equal Model.Reference. The network is the small
// dw-dense int8 model at capacity 4, so each run stays cheap.
//
// Seeds live in testdata/fuzz/FuzzNetworkRun. Fuzz with
//
//	go test -run '^$' -fuzz FuzzNetworkRun -fuzztime 20s ./internal/nn
func FuzzNetworkRun(f *testing.F) {
	const B = 4
	m := smallDWDenseInt8()
	per := m.In().N()
	dev := openTest(f)
	defer dev.Close()
	net, err := m.Build(dev, B, false)
	if err != nil {
		f.Fatal(err)
	}
	defer net.Close()
	valid := randI8(rand.New(rand.NewSource(6)), B*per, -8, 7)
	want := make([]interface{}, B+1) // want[k]: the reference of valid's first k images
	for k := 1; k <= B; k++ {
		ref, _, err := m.Reference(valid[:k*per], k)
		if err != nil {
			f.Fatal(err)
		}
		want[k] = ref[len(ref)-1]
	}

	f.Fuzz(func(t *testing.T, elem, n int, data []byte, k int) {
		n = int(uint(n) % uint((B+2)*per+1))
		input, int8s := fuzzInput(elem, n, data)
		res, err := net.Run(input)
		if ok := int8s && n > 0 && n%per == 0 && n/per <= B; !ok {
			if err == nil {
				t.Fatalf("Run accepted %T of %d elements (%d per image, capacity %d)", input, n, per, B)
			}
		} else {
			if err != nil {
				t.Fatalf("Run rejected %d images: %v", n/per, err)
			}
			ref, _, err := m.Reference(input, n/per)
			if err != nil {
				t.Fatal(err)
			}
			if !Int8Equal(res.Output, ref[len(ref)-1]) {
				t.Fatalf("%d images: output differs from the reference", n/per)
			}
		}
		k = 1 + int(uint(k)%B)
		res, err = net.Run(valid[:k*per])
		if err != nil {
			t.Fatalf("valid %d-image run after %T of %d elements: %v", k, input, n, err)
		}
		if !Int8Equal(res.Output, want[k]) {
			t.Fatalf("valid %d-image run after %T of %d elements differs from the reference", k, input, n)
		}
	})
}

// fuzzInput builds a host value of n elements of the kind elem selects,
// its values cycled from data, and reports whether it is an []int8.
func fuzzInput(elem, n int, data []byte) (interface{}, bool) {
	at := func(i int) byte {
		if len(data) == 0 {
			return 0
		}
		return data[i%len(data)]
	}
	switch uint(elem) % 7 {
	case 0:
		s := make([]int8, n)
		for i := range s {
			s[i] = int8(at(i))
		}
		return s, true
	case 1:
		s := make([]float32, n)
		for i := range s {
			s[i] = float32(int8(at(i)))
		}
		return s, false
	case 2:
		return make([]int32, n), false
	case 3:
		return make([]uint8, n), false
	case 4:
		return make([]uint32, n), false
	case 5:
		return nil, false
	}
	return string(data), false
}
