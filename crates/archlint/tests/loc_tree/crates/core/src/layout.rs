pub fn layout_pins_are_never_counted() {}
