package manchester

import "testing"

func BenchmarkEncode64(b *testing.B) {
	data := make([]byte, 64)
	var buf [16]uint64 // 1,024 flags
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(buf[:0], data)
	}
}

func BenchmarkDecode64(b *testing.B) {
	flags := Encode(nil, make([]byte, 64))
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(flags, EncodedDots(64)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWOMEncode64(b *testing.B) {
	data := make([]byte, 64)
	var buf [12]uint64 // 768 flags
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WOMEncode(buf[:0], data)
	}
}

func BenchmarkWOMDecode64(b *testing.B) {
	flags := WOMEncode(nil, make([]byte, 64))
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WOMDecode(flags, WOMEncodedDots(64)); err != nil {
			b.Fatal(err)
		}
	}
}
