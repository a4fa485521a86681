package report

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"
	"time"

	"afrixp/internal/timeseries"
)

func svgSample() (*timeseries.Series, *timeseries.Series) {
	far, near := make([]float64, 96), make([]float64, 96)
	for i := range far {
		far[i], near[i] = 2, 0.5
		if i%24 >= 9 && i%24 < 17 {
			far[i] = 28
		}
	}
	// A gap in the far series (lost probes).
	far[40], far[41] = timeseries.Missing, timeseries.Missing
	return timeseries.FromValues(0, time.Hour, near), timeseries.FromValues(0, time.Hour, far)
}

func TestWriteSVGWellFormed(t *testing.T) {
	near, far := svgSample()
	var buf bytes.Buffer
	err := WriteSVG(&buf, "RTTs GIXA–GHANATEL", "RTT (ms)", 640, 360,
		SVGSeries{Name: "far", Series: far},
		SVGSeries{Name: "near", Series: near, Color: "#555"},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Well-formed XML.
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		if _, err := dec.Token(); err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("invalid XML: %v\n%s", err, out)
		}
	}
	for _, want := range []string{"<svg", "polyline", "RTT (ms)", "far", "near", "#555"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in SVG", want)
		}
	}
	// The gap must split the far polyline into at least two segments.
	if strings.Count(out, "<polyline") < 3 {
		t.Fatalf("gap did not split the line: %d polylines", strings.Count(out, "<polyline"))
	}
}

func TestWriteSVGScatter(t *testing.T) {
	_, far := svgSample()
	var buf bytes.Buffer
	err := WriteSVG(&buf, "loss", "%", 640, 360,
		SVGSeries{Name: "loss", Series: far, Scatter: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "<circle") < 50 {
		t.Fatal("scatter mode should emit one circle per sample")
	}
}

func TestWriteSVGValidation(t *testing.T) {
	_, far := svgSample()
	if err := WriteSVG(&bytes.Buffer{}, "t", "y", 640, 360); err == nil {
		t.Fatal("no series must fail")
	}
	if err := WriteSVG(&bytes.Buffer{}, "t", "y", 50, 50,
		SVGSeries{Name: "x", Series: far}); err == nil {
		t.Fatal("tiny geometry must fail")
	}
	empty := timeseries.FromValues(0, time.Hour, allMissing(5))
	if err := WriteSVG(&bytes.Buffer{}, "t", "y", 640, 360,
		SVGSeries{Name: "x", Series: empty}); err == nil {
		t.Fatal("all-missing series must fail")
	}
}

func TestWriteSVGEscapesMarkup(t *testing.T) {
	_, far := svgSample()
	var buf bytes.Buffer
	if err := WriteSVG(&buf, `<b>&"title"</b>`, "y", 640, 360,
		SVGSeries{Name: "a<b", Series: far}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "<b>") {
		t.Fatal("title markup not escaped")
	}
}
