package explore

import (
	"encoding/binary"
	"fmt"
)

// Wire codec of the shard exchange: one message, the round, carrying a stop
// flag and candidate lists. A participant posts its own list and stop bit;
// the gathered reply carries every participant's list and the OR of the
// stop bits. The format is length-prefixed little-endian binary behind a
// magic/version header, about 27 bytes per candidate, and decoding is
// defensive throughout: malformed input returns an error, never a panic or
// an allocation beyond the input's size, which the FuzzShardCodec target
// hammers on.

// shardRoundMagic heads a round message; the trailing digit versions the
// format.
var shardRoundMagic = [4]byte{'K', 'S', 'R', '1'}

// maxShardDetail bounds a candidate's goal detail string on the wire.
const maxShardDetail = 1 << 16

// shardCandBytes is the wire size of a candidate without its detail.
const shardCandBytes = 27

// EncodeShardRound serializes a round message.
func EncodeShardRound(stop bool, lists [][]ShardCandidate) ([]byte, error) {
	buf := append([]byte(nil), shardRoundMagic[:]...)
	buf = append(buf, boolByte(stop))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(lists)))
	for _, cands := range lists {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cands)))
		for i := range cands {
			c := &cands[i]
			if len(c.Detail) >= maxShardDetail {
				return nil, fmt.Errorf("explore: candidate detail %d bytes exceeds wire limit", len(c.Detail))
			}
			buf = binary.LittleEndian.AppendUint64(buf, c.Key)
			buf = binary.LittleEndian.AppendUint64(buf, c.Ord)
			buf = binary.LittleEndian.AppendUint64(buf, c.Bits)
			buf = append(buf, boolByte(c.Goal))
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(c.Detail)))
			buf = append(buf, c.Detail...)
		}
	}
	return buf, nil
}

// DecodeShardRound reverses EncodeShardRound.
func DecodeShardRound(data []byte) (stop bool, lists [][]ShardCandidate, err error) {
	if len(data) < 9 || [4]byte(data[:4]) != shardRoundMagic {
		return false, nil, fmt.Errorf("explore: shard codec: bad round header")
	}
	if stop, err = byteBool(data[4], "stop"); err != nil {
		return false, nil, err
	}
	n := binary.LittleEndian.Uint32(data[5:])
	data = data[9:]
	// Every list takes at least 4 bytes and every candidate 27, so no
	// wire-supplied count can allocate beyond the input's size.
	lists = make([][]ShardCandidate, 0, min(uint64(n), uint64(len(data)/4)))
	for i := uint32(0); i < n; i++ {
		if len(data) < 4 {
			return false, nil, fmt.Errorf("explore: shard codec: truncated count of list %d of %d", i, n)
		}
		m := binary.LittleEndian.Uint32(data)
		data = data[4:]
		cands := make([]ShardCandidate, 0, min(uint64(m), uint64(len(data)/shardCandBytes)))
		for j := uint32(0); j < m; j++ {
			if len(data) < shardCandBytes {
				return false, nil, fmt.Errorf("explore: shard codec: truncated candidate %d of list %d", j, i)
			}
			c := ShardCandidate{
				Key:  binary.LittleEndian.Uint64(data),
				Ord:  binary.LittleEndian.Uint64(data[8:]),
				Bits: binary.LittleEndian.Uint64(data[16:]),
			}
			if c.Goal, err = byteBool(data[24], "goal"); err != nil {
				return false, nil, err
			}
			dlen := int(binary.LittleEndian.Uint16(data[25:]))
			data = data[shardCandBytes:]
			if len(data) < dlen {
				return false, nil, fmt.Errorf("explore: shard codec: truncated detail of candidate %d of list %d", j, i)
			}
			c.Detail = string(data[:dlen])
			data = data[dlen:]
			cands = append(cands, c)
		}
		lists = append(lists, cands)
	}
	if len(data) != 0 {
		return false, nil, fmt.Errorf("explore: shard codec: %d trailing bytes after round", len(data))
	}
	return stop, lists, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func byteBool(b byte, name string) (bool, error) {
	if b > 1 {
		return false, fmt.Errorf("explore: shard codec: bad %s flag %d", name, b)
	}
	return b == 1, nil
}
