package packet

import "encoding/binary"

// Builder constructs well-formed UDP packets for generators and tests.
// The zero value is not useful; use NewBuilder.
type Builder struct {
	srcMAC, dstMAC MAC
	ttl            uint8
	payloadSeed    uint64
}

// NewBuilder returns a Builder with the testbed's fixed L2 endpoints.
func NewBuilder(srcMAC, dstMAC MAC) *Builder {
	return &Builder{srcMAC: srcMAC, dstMAC: dstMAC, ttl: 64}
}

// UDP builds a UDP packet with the given flow key and total wire size
// (Ethernet through payload, no FCS). totalSize must be at least
// HeaderUnitLen (42); the payload is filled with a deterministic
// pseudo-random pattern derived from the builder seed, the flow and the
// packet id, so corruption anywhere in the pipeline is detectable.
func (b *Builder) UDP(ft FiveTuple, totalSize int, id uint16) *Packet {
	return b.UDPInto(&Packet{}, ft, totalSize, id)
}

// UDPInto is UDP writing into a caller-owned (typically recycled) Packet,
// reusing its UDP header struct and payload backing so steady-state
// generation does not allocate. The backing is sized for the largest
// Ethernet payload on first use and kept for the packet's life, so a
// recycled packet never reallocates when the next size is larger. Every
// other field is rewritten; no state of the packet's previous life
// survives.
func (b *Builder) UDPInto(p *Packet, ft FiveTuple, totalSize int, id uint16) *Packet {
	if totalSize < HeaderUnitLen {
		totalSize = HeaderUnitLen
	}
	payloadLen := totalSize - HeaderUnitLen
	udp := p.UDP
	if udp == nil {
		udp = &UDP{}
	}
	buf := p.buf
	if cap(buf) < payloadLen {
		buf = make([]byte, max(payloadLen, maxUDPPayload))
	}
	payload := fillPayload(buf[:0], payloadLen, b.payloadSeed^uint64(ft.SrcIP.Uint32())<<16^uint64(id))
	*p = Packet{
		Eth: Ethernet{Dst: b.dstMAC, Src: b.srcMAC, EtherType: EtherTypeIPv4},
		IP: IPv4{
			TotalLength: uint16(totalSize - EthernetHeaderLen),
			ID:          id,
			TTL:         b.ttl,
			Protocol:    IPProtoUDP,
			Src:         ft.SrcIP,
			Dst:         ft.DstIP,
		},
		UDP:     udp,
		Payload: payload,
		buf:     buf,
	}
	*udp = UDP{
		SrcPort: ft.SrcPort,
		DstPort: ft.DstPort,
		Length:  uint16(UDPHeaderLen + payloadLen),
	}
	p.IP.UpdateChecksum()
	return p
}

// maxUDPPayload is the UDP payload of a 1500 B frame (Ethernet without
// FCS), the size every generated packet's payload backing starts at.
const maxUDPPayload = 1500 - HeaderUnitLen

// SetPayloadSeed changes the payload pattern seed (default 0).
func (b *Builder) SetPayloadSeed(seed uint64) { b.payloadSeed = seed }

// fillPayload appends n bytes of a deterministic splitmix64 pattern to
// out's backing array (reusing capacity) and returns the filled slice.
func fillPayload(out []byte, n int, seed uint64) []byte {
	if cap(out) < n {
		out = make([]byte, n)
	} else {
		out = out[:n]
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(out[i:], splitmix64(&seed))
	}
	if i < n {
		var word [8]byte
		binary.LittleEndian.PutUint64(word[:], splitmix64(&seed))
		copy(out[i:], word[:])
	}
	return out
}

// splitmix64 advances the stream and returns the next word.
func splitmix64(seed *uint64) uint64 {
	*seed += 0x9e3779b97f4a7c15
	z := *seed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TCP builds a TCP packet with the given flow key and total wire size,
// mirroring UDP. The paper's prototype "works with all protocols" (§7);
// TCP traffic exercises the same parking path with a 20-byte L4 header.
func (b *Builder) TCP(ft FiveTuple, totalSize int, seq uint32, id uint16) *Packet {
	minSize := EthernetHeaderLen + IPv4HeaderLen + TCPHeaderLen
	if totalSize < minSize {
		totalSize = minSize
	}
	payloadLen := totalSize - minSize
	p := &Packet{
		Eth: Ethernet{Dst: b.dstMAC, Src: b.srcMAC, EtherType: EtherTypeIPv4},
		IP: IPv4{
			TotalLength: uint16(totalSize - EthernetHeaderLen),
			ID:          id,
			TTL:         b.ttl,
			Protocol:    IPProtoTCP,
			Src:         ft.SrcIP,
			Dst:         ft.DstIP,
		},
		TCP: &TCP{
			SrcPort: ft.SrcPort, DstPort: ft.DstPort,
			Seq: seq, Flags: 0x18, Window: 65535,
		},
		Payload: fillPayload(nil, payloadLen, b.payloadSeed^uint64(ft.SrcIP.Uint32())<<16^uint64(id)),
	}
	p.IP.UpdateChecksum()
	return p
}
