package radio

// FrameKind distinguishes link-layer frame types.
type FrameKind uint8

// Frame kinds.
const (
	FrameData FrameKind = iota + 1
	FrameAck
)

// Frame is a link-layer frame. Frames delivered to multiple overhearing
// receivers share one instance; receivers must treat them as read-only.
type Frame struct {
	Kind FrameKind
	Src  NodeID
	// Dst is the link-layer destination; BroadcastID for broadcast or
	// anycast frames (upper layers decide acceptance).
	Dst NodeID
	// Seq is a per-transmitter link-layer sequence number. Retransmissions
	// of the same packet reuse the Seq, letting receivers detect
	// duplicates and letting acks name the frame they acknowledge.
	Seq uint32
	// AckSrc/AckSeq identify the frame being acknowledged (Kind=FrameAck).
	AckSrc NodeID
	AckSeq uint32
	// Size is the MAC frame length in bytes (excluding PHY overhead),
	// used for airtime and PRR computation.
	Size int
	// Payload carries the upper-layer message (in-memory simulation; no
	// byte serialization). Must be immutable once transmitted.
	Payload any
}

// ackSize is the MAC-layer size of an acknowledgement frame in bytes.
const ackSize = 5

// NewAck returns an acknowledgement for frame f sent by acker. It is a
// value, so a sender can fill one frame it reuses for every ack.
func NewAck(acker NodeID, f *Frame) Frame {
	return Frame{
		Kind:   FrameAck,
		Src:    acker,
		Dst:    f.Src,
		AckSrc: f.Src,
		AckSeq: f.Seq,
		Size:   ackSize,
	}
}
