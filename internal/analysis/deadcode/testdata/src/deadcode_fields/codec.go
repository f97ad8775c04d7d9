package deadcode_fields

// Msg is a wire message. Reads in its encoder do not count: Extra is
// encoded and decoded, and nothing else reads it.
type Msg struct {
	Sent  int
	Extra int // want `field Msg.Extra is read by no non-test file`
}

func appendMsg(b []byte, m *Msg) []byte {
	return append(b, byte(m.Sent), byte(m.Extra))
}

func readMsg(b []byte, m *Msg) {
	m.Sent, m.Extra = int(b[0]), int(b[1])
}

func decodedSent() int {
	var m Msg
	readMsg(appendMsg(nil, &Msg{Sent: 1, Extra: 2}), &m)
	return m.Sent
}
