// Self-securing audit log: §8's suggestion that tamper-evident storage
// strengthens self-securing storage [47] — the device keeps a log of
// the commands it was given and periodically heats completed log
// lines, so even a fully compromised host cannot silently rewrite the
// history of its own actions. Entries are also indexed in a fossilized
// index (§4.2) for trustworthy lookup.
//
// Run with: go run ./examples/selfsecuring_log
package main

import (
	"fmt"
	"log"

	"sero"
	"sero/internal/fossil"
)

func main() {
	dev := sero.Open(sero.Options{Blocks: 8192, Quiet: true})
	idx, err := fossil.New(dev.Store())
	if err != nil {
		log.Fatal(err)
	}

	// The storage device journals every host command into log lines of
	// 4 blocks; each sealed line is heated and indexed by its first
	// entry's hash.
	var (
		pending  [][]byte
		sealed   int
		commands = []string{
			"WRITE /db/accounts 4096B", "WRITE /db/accounts 512B",
			"READ  /db/accounts", "WRITE /etc/passwd 1024B",
			"WRITE /db/accounts 512B", "DELETE /var/log/auth.log",
			"WRITE /db/orders 2048B", "READ  /db/orders",
			"WRITE /db/orders 512B", "DELETE /tmp/x",
			"WRITE /db/accounts 512B", "READ  /etc/passwd",
		}
	)
	seal := func() {
		if len(pending) == 0 {
			return
		}
		start, logN, err := dev.WriteLine(pending)
		if err != nil {
			log.Fatal(err)
		}
		li, err := dev.Heat(start, logN)
		if err != nil {
			log.Fatal(err)
		}
		if err := idx.Insert(fossil.KeyOf(pending[0]), li.Start); err != nil {
			log.Fatal(err)
		}
		sealed++
		fmt.Printf("sealed log line %d at block %d (%d entries)\n", sealed, li.Start, len(pending))
		pending = nil
	}

	for i, cmd := range commands {
		entry := make([]byte, sero.BlockSize)
		copy(entry, fmt.Sprintf("seq=%04d cmd=%s", i, cmd))
		pending = append(pending, entry)
		if len(pending) == 3 {
			seal()
		}
	}
	seal()

	// The intruder got root and wants the DELETE of auth.log gone.
	// They rewrite the raw medium under the sealed line holding it.
	lines := dev.Lines()
	victim := lines[1] // the line containing seq 3..5
	forged := make([]byte, sero.BlockSize)
	copy(forged, "seq=0005 cmd=READ  /var/log/auth.log")
	if err := dev.RawDevice().ForgeBlock(victim.Start+3, forged); err != nil {
		log.Fatal(err)
	}
	fmt.Println("intruder rewrote a sealed log entry on the raw medium")

	// The periodic self-check catches it.
	audit := dev.Audit()
	fmt.Print(audit.Summary())

	// The fossilized index still resolves untampered lines.
	first := make([]byte, sero.BlockSize)
	copy(first, "seq=0000 cmd=WRITE /db/accounts 4096B")
	if start, err := idx.Lookup(fossil.KeyOf(first)); err == nil {
		fmt.Printf("index lookup: first log line at block %d\n", start)
	}
	if heated := idx.HeatedNodes(); heated > 0 {
		fmt.Printf("index nodes heated so far: %d\n", heated)
	}
}
