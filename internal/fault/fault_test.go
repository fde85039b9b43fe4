package fault

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestOf(t *testing.T) {
	stall := New(LinkStall, "stalled")
	cases := []struct {
		err  error
		want Class
	}{
		{nil, Unknown},
		{errors.New("plain"), Unknown},
		{stall, LinkStall},
		{fmt.Errorf("tile 3: %w", stall), LinkStall},
		// Outermost wins, in Unwrap() []error order too.
		{fmt.Errorf("%w: %w", New(Load, "shed"), stall), Load},
		{fmt.Errorf("%v: %w", stall, New(BudgetExhausted, "late")), BudgetExhausted},
	}
	for _, c := range cases {
		if got := Of(c.err); got != c.want {
			t.Errorf("Of(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	if a, b := New(Load, "x"), New(Load, "x"); errors.Is(a, b) || !errors.Is(fmt.Errorf("w: %w", a), a) {
		t.Error("New must return distinct sentinels that errors.Is matches by identity")
	}
}

func TestWireValuesFrozen(t *testing.T) {
	frozen := map[Class]byte{
		Unknown: 0, Device: 1, LinkStall: 2, CorruptFrame: 3, Load: 4, BudgetExhausted: 5,
		DeadlineMissed: 6, AdmissionShed: 7, Request: 8, Fenced: 9, StormShed: 10,
	}
	if len(frozen) != NumClasses {
		t.Fatalf("%d frozen values for %d classes: a new class appends a new value", len(frozen), NumClasses)
	}
	for c, b := range frozen {
		if byte(c) != b || FromWire(b) != c {
			t.Errorf("%v: wire value %d, frozen at %d", c, byte(c), b)
		}
	}
	for _, b := range []byte{NumClasses, 0x7F, 0xFF} {
		if FromWire(b) != Unknown || Class(b).String() != "unknown" || Class(b).Policy() != Unknown.Policy() {
			t.Errorf("out-of-range class byte %d must read as unknown", b)
		}
	}
}

// DESIGN.md §13.4 is the policy table, literally: every class has exactly one
// row there and each cell says what the code does.
func TestDesignTableMatchesPolicy(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n### 13.4 ")
	if !ok {
		t.Fatal("DESIGN.md has no §13.4")
	}
	section, _, _ = strings.Cut(section, "\n#")

	yesNo := map[bool]string{true: "yes", false: "no"}
	health := map[Evidence]string{EvidenceNone: "none", EvidenceFailure: "failure",
		EvidenceOverload: "overload", EvidenceStall: "failure + stall"}
	limiter := map[Limiter]string{LimiterCongested: "congested", LimiterNeutral: "neutral"}
	bucket := map[Bucket]string{BucketFailed: "Failed", BucketOverloaded: "Overloads (dropped)",
		BucketBudgetExhausted: "BudgetExhausted (dropped)", BucketDeadlineMissed: "DeadlineMissed (dropped)",
		BucketShed: "Shed"}

	rows := map[string][]string{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		name := strings.Trim(cells[0], "`")
		if _, dup := rows[name]; dup {
			t.Errorf("class %q has two rows", name)
		}
		rows[name] = cells
	}
	if len(rows) != NumClasses {
		t.Errorf("§13.4 has %d class rows, fault has %d classes", len(rows), NumClasses)
	}
	for c := Class(0); c < NumClasses; c++ {
		cells, ok := rows[c.String()]
		if !ok || len(cells) != 7 {
			t.Errorf("%v: no 7-cell row in §13.4 (got %q)", c, cells)
			continue
		}
		p := c.Policy()
		// cells[1] is prose: what is born with the class.
		want := []string{yesNo[p.Demote], health[p.Health], limiter[p.Limiter], yesNo[p.Retry], bucket[p.Bucket]}
		if got := cells[2:]; strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("%v: §13.4 says %q, code does %q", c, got, want)
		}
	}
}
