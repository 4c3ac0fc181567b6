//! Fixture crate root: comment and blank lines do not count.

pub mod a;
#[cfg(test)]
mod layout;

/// Doc comments do not count either.
pub fn f() -> u32 {
    // Nor do indented comments.
    1
}

#[cfg(test)]
mod tests {
    #[test]
    fn not_counted() {}
}

pub fn after_the_tests_module_is_not_counted() {}
