// Crypto: the third thesis goal (§1.1, §8.3) — incorporating computation
// into the switch fabric's communication path. With the Crypto option the
// router stream-ciphers every payload on its way out (headers stay in the
// clear so the next hop can route), at a configurable per-word cost.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/router"
	"repro/internal/traffic"
)

func main() {
	const key = 0xfeedface

	cfg := router.DefaultConfig()
	cfg.Crypto, cfg.CryptoKey = true, key
	run := func(crypto bool) float64 {
		c := cfg
		c.Crypto = crypto
		r, err := core.New(c)
		if err != nil {
			log.Fatal(err)
		}
		srcs, err := traffic.MustBuild(traffic.Spec{Pattern: "permutation", Size: 1024,
			Params: map[string]float64{"offset": 1}}).Sources()
		if err != nil {
			log.Fatal(err)
		}
		return r.RunMeasured(40_000, 100_000, srcs).Gbps
	}

	plain := run(false)
	ciphered := run(true)
	fmt.Printf("peak 1024B throughput: %.2f Gbps plain, %.2f Gbps with in-fabric encryption\n",
		plain, ciphered)
	fmt.Printf("(every payload word crosses the egress processor plus %d cipher cycles/word;\n",
		router.CryptoCyclesPerWord)
	fmt.Println(" the thesis's fix — spreading the cipher across crossbar tiles — is future work there too)")

	// Demonstrate the transform end to end on a fresh router.
	cyc, err := router.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	pkt := ip.NewPacket(traffic.PortAddr(0, 1), traffic.PortAddr(3, 2), 64, 128, 777)
	cyc.OfferPacket(0, &pkt)
	if !cyc.Chip.RunUntil(func() bool { return cyc.Stats().PktsOut[3] >= 1 }, 50_000) {
		log.Fatal("demo packet not delivered")
	}
	out, err := cyc.DrainOutput(3)
	if err != nil || len(out) == 0 {
		log.Fatalf("drain: %v", err)
	}
	got := out[len(out)-1]
	fmt.Printf("\npayload word 0: sent %#08x, on the wire %#08x, keystream %#08x\n",
		pkt.Payload[0], got.Payload[0], uint32(router.CryptoMask(key, 0)))
	dec := got.Payload[0] ^ uint32(router.CryptoMask(key, 0))
	fmt.Printf("decrypting with the shared key recovers %#08x (match: %v)\n",
		dec, dec == pkt.Payload[0])
}
