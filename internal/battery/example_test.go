package battery_test

import (
	"fmt"

	"antidope/internal/battery"
)

// Example sizes the paper's mini UPS and walks one shave-recharge cycle.
func Example() {
	// 2 minutes of autonomy at a 400 W rack draw.
	ups := battery.Sized(400, 120)
	fmt.Printf("capacity: %.0f kJ\n", ups.CapacityJ/1e3)

	// Shave a 60 W peak for 30 s.
	got := ups.Discharge(60, 30)
	fmt.Printf("shaved %.0f W, SoC now %.3f\n", got, ups.SoC())

	// Recharge with 50 W of budget headroom for 60 s (charger-limited).
	used := ups.Charge(50, 60)
	fmt.Printf("recharging at %.0f W, SoC now %.3f\n", used, ups.SoC())
	// Output:
	// capacity: 48 kJ
	// shaved 60 W, SoC now 0.963
	// recharging at 33 W, SoC now 1.000
}
