package translation

import "testing"

// TestNewBuildsEveryName holds Names and New's switch to one list:
// each name -mech accepts builds, under its own name, with nil only for
// "tempo" (the default machine), and an unknown name is an error.
func TestNewBuildsEveryName(t *testing.T) {
	for _, name := range Names() {
		m, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if (m == nil) != (name == "tempo") {
			t.Errorf("New(%q) = %v, want nil only for tempo", name, m)
		}
		if m != nil && m.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, m.Name())
		}
	}
	if m, err := New(""); m != nil || err != nil {
		t.Errorf(`New("") = %v, %v, want the default machine`, m, err)
	}
	if _, err := New("nosuch"); err == nil {
		t.Error("New accepted an unknown name")
	}
}
