package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// TestHTTPFloatColumnJSON: a float column renders as the same JSON
// numbers /query printed when a Value kept its float in a float64 field
// (the expected body was recorded from that representation): integral
// values without a fraction, fractions, signs and exponents exactly as
// encoding/json writes a float64.
func TestHTTPFloatColumnJSON(t *testing.T) {
	s := New(testDB(t), t.Logf)
	ts := httptest.NewServer(s.HTTPHandler())
	defer ts.Close()
	do := func(path, sql string, post bool) string {
		t.Helper()
		u := ts.URL + path + "?q=" + url.QueryEscape(sql)
		get := ts.Client().Get
		if post {
			get = func(u string) (*http.Response, error) { return ts.Client().Post(u, "text/plain", nil) }
		}
		res, err := get(u)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != 200 {
			t.Fatalf("%s %q: %d %s", path, sql, res.StatusCode, body)
		}
		return string(body)
	}
	for _, amount := range []string{"0.1", "-2.25", "1000000000000000000000.0", "1234.5625", "0.000001"} {
		do("/exec", "INSERT INTO Orders (customer_id, quarter, amount) VALUES (3, '2006-Q1', "+amount+")", true)
	}
	body := do("/query", "SELECT id, amount FROM Orders WHERE id >= 298", false)
	const want = `"rows":[[298,48],[299,49],[300,0.1],[301,-2.25],[302,1e+21],[303,1234.5625],[304,0.000001]]`
	if !strings.Contains(body, want) {
		t.Fatalf("query body %s\nwant it to contain %s", body, want)
	}
}
