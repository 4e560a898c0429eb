package client

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"hotnoc/server/wire"
)

// TestStreamDecodeMatchesUnmarshal: a stream's presized outcome decoding
// yields what json.Unmarshal gives into a zero OutcomeMsg, payload by
// payload, nil and empty slices kept apart, and an outcome already
// handed out is not changed by decoding the next. The payloads are the
// 25 outcomes of a scale-8 Figure 1 job followed by reactive, empty,
// null and absent result arms and arrays longer than any before.
func TestStreamDecodeMatchesUnmarshal(t *testing.T) {
	golden, err := os.ReadFile("../server/testdata/fig1_outcomes_scale8.txt")
	if err != nil {
		t.Fatal(err)
	}
	payloads := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	payloads = append(payloads,
		`{"index":25,"point":{"config":"A","scheme":"Rot","kind":"reactive","reactive":{"trigger_c":80}},"built":{},"reactive":{"PeakC":81,"BlockPeaks":[80.5,81]}}`,
		`{"index":26,"point":{"config":"A","scheme":"Rot"},"built":{},"result":{"Legs":[],"BaselineMaxTemps":null}}`,
		`{"index":27,"point":{"config":"A","scheme":"Rot"},"built":{},"result":null}`,
		`{"index":28,"point":{"config":"A","scheme":"Rot"},"built":{},"result":{"ReductionC":1}}`,
		`{"index":29,"point":{"config":"A","scheme":"Rot"},"built":{},"result":{"Legs":[{},{},{},{},{},{},{},{}],`+
			`"BaselineMaxTemps":[`+strings.Repeat("1,", 39)+`1],"MigratedMaxTemps":[2]}}`,
	)
	for _, periodic := range []bool{true, false} {
		var st stream
		got := make([]wire.OutcomeMsg, len(payloads))
		for i, p := range payloads {
			m, err := st.decode([]byte(p), periodic)
			if err != nil {
				t.Fatalf("payload %d: %v", i, err)
			}
			got[i] = *m
		}
		for i, p := range payloads {
			var want wire.OutcomeMsg
			if err := json.Unmarshal([]byte(p), &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("periodic %v: payload %d decoded to\n%+v\nwant\n%+v", periodic, i, got[i], want)
			}
		}
	}
}

// TestStreamDecodeErrorsMatchUnmarshal: a malformed outcome payload,
// truncated or followed by more bytes, fails with json.Unmarshal's error
// text although the stream reuses one decoder, and the payload after it
// still decodes as json.Unmarshal decodes it.
func TestStreamDecodeErrorsMatchUnmarshal(t *testing.T) {
	good := `{"index":0,"point":{"config":"A","scheme":"Rot"},"built":{},"result":{"ReductionC":1}}`
	var st stream
	for _, bad := range []string{good[:len(good)-1], good[:9], "", good + "x", good + "}", good + good} {
		_, err := st.decode([]byte(bad), true)
		var m wire.OutcomeMsg
		want := json.Unmarshal([]byte(bad), &m)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("payload %q: error %v, json.Unmarshal's %v", bad, err, want)
		}
		got, err := st.decode([]byte(good), true)
		if err != nil {
			t.Fatalf("after %q: %v", bad, err)
		}
		var wantMsg wire.OutcomeMsg
		if err := json.Unmarshal([]byte(good), &wantMsg); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, wantMsg) {
			t.Fatalf("after %q: decoded %+v, want %+v", bad, *got, wantMsg)
		}
	}
}
