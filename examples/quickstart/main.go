// Quickstart: open a simulated SERO device, write a line of blocks,
// heat it, verify it, tamper with it, and watch the verification fail.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"sero"
)

func main() {
	// A small simulated device: 256 blocks of 512 bytes.
	dev := sero.Open(sero.Options{Blocks: 256, Quiet: true})

	// Write three related blocks as one line (the library pads the
	// line to the next power of two and reserves block 0 for the
	// hash).
	blocks := [][]byte{
		fill("minutes of the board meeting, page 1"),
		fill("minutes of the board meeting, page 2"),
		fill("minutes of the board meeting, page 3"),
	}
	start, logN, err := dev.WriteLine(blocks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote line at block %d (2^%d blocks)\n", start, logN)

	// While unheated, the blocks are ordinary rewritable storage.
	if err := dev.Write(start+1, fill("page 1, revised")); err != nil {
		log.Fatal(err)
	}
	fmt.Println("rewrote page 1 — the device is still write-many")

	// Heat the line: the hash of (address ‖ data) for every block is
	// burnt into write-once heated dots. Irreversible.
	li, err := dev.Heat(start, logN)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heated: hash %x... stored at block %d\n", li.Record.Hash[:8], li.Start)

	// Verification passes, and the data is still readable.
	rep, err := dev.Verify(start)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verify: tampered=%v\n", rep.Tampered())

	// The device now refuses ordinary writes into the heated line...
	if err := dev.Write(start+1, fill("page 1, falsified")); err != nil {
		fmt.Println("write into heated line refused:", err)
	}

	// ...so the attacker goes under the device: a raw medium write
	// with a perfectly consistent forged frame.
	if err := dev.RawDevice().ForgeBlock(start+1, fill("page 1, falsified")); err != nil {
		log.Fatal(err)
	}
	fmt.Println("attacker rewrote the raw medium behind the device's back")

	// The heated hash catches it.
	rep, err = dev.Verify(start)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verify: tampered=%v (hash mismatch=%v)\n", rep.Tampered(), rep.HashMismatch)
}

func fill(s string) []byte {
	b := make([]byte, sero.BlockSize)
	copy(b, s)
	return b
}
