package rpc

// BagServer is the hook a node installs (ServerOptions.Bags) to serve
// MsgPullBag requests: a multi-sample embedding-bag gather with
// server-side pooling. PullBags pools each bag keys[offsets[i]:
// offsets[i+1]] into out[i*Dim():(i+1)*Dim()] (sum, or mean when mean is
// set; an empty bag pools to the zero vector). The offsets slice has
// already been validated against keys by the server. All three slices are
// the connection's scratch: out arrives holding the previous request's
// answer, so PullBags writes every row of it (empty bags included), and
// keeps none of the slices past its return.
type BagServer interface {
	Dim() int
	PullBags(mean bool, offsets []uint32, keys []uint64, out []float32) error
}

// Pooling modes: the byte a MsgPullBag payload opens with.
const (
	bagSum byte = iota
	bagMean
)

// ValidateBagOffsets checks a bag-offsets array against its key list:
// at least one entry, offsets[0] == 0, non-decreasing, and the final
// offset equal to len(keys). Zero-length bags are legal.
func ValidateBagOffsets(offsets []uint32, nkeys int) error {
	if len(offsets) == 0 {
		return refusef("rpc: bag offsets empty")
	}
	if offsets[0] != 0 {
		return refusef("rpc: bag offsets must start at 0, got %d", offsets[0])
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return refusef("rpc: bag offsets decrease at %d (%d < %d)", i, offsets[i], offsets[i-1])
		}
	}
	if last := offsets[len(offsets)-1]; int(last) != nkeys {
		return refusef("rpc: bag offsets end at %d, want %d keys", last, nkeys)
	}
	return nil
}

// pullBags is the one PullBags implementation: the pooled rows are
// decoded, under mu, into dst's array when they fit it.
//
// oevet:hotpath
func (c *Client) pullBags(mean bool, offsets []uint32, keys []uint64, dst []float32) ([]float32, error) {
	c.mu.Lock()
	defer c.release()
	b := &c.sc.out
	b.Reset(MsgPullBag, 0)
	b.PutBool(mean) // the pooling mode: bagMean or bagSum
	b.PutU32s(offsets)
	b.PutKeys(keys)
	r, err := c.doLocked(b.b)
	if err != nil {
		return nil, err
	}
	return r.FloatsInto(dst)
}

// PullBags gathers pooled embedding bags from the server: bag i is
// keys[offsets[i]:offsets[i+1]], pooled server-side (sum, or mean when
// mean is set) so the response carries one dim-sized row per bag.
// Read-only and idempotent, like Pull.
func (c *Client) PullBags(mean bool, offsets []uint32, keys []uint64) ([]float32, error) {
	return c.pullBags(mean, offsets, keys, nil)
}

// PullBagsInto is PullBags straight into the caller's memory: dst must be
// exactly the (len(offsets)-1)*dim floats the server answers with.
func (c *Client) PullBagsInto(mean bool, offsets []uint32, keys []uint64, dst []float32) error {
	got, err := c.pullBags(mean, offsets, keys, dst[:0:len(dst)])
	return filled(got, dst, err)
}
