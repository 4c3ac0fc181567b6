pub fn subdirectories_are_not_counted() {}
