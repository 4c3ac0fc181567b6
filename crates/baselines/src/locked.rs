//! Coarse-grained locked stack — a correctness oracle, not a contender.
//!
//! Not part of the paper's evaluation; used by tests and the quality
//! substrate as a trivially correct strict reference implementation.

use core::fmt;

use stack2d::sync::Mutex;

use stack2d::{OpsHandle, RelaxedOps};

/// A `Mutex<Vec<T>>` stack with strict LIFO semantics.
///
/// # Examples
///
/// ```
/// use stack2d_baselines::LockedStack;
///
/// let s = LockedStack::new();
/// s.push(1);
/// s.push(2);
/// assert_eq!(s.pop(), Some(2));
/// ```
pub struct LockedStack<T> {
    items: Mutex<Vec<T>>,
}

impl<T> LockedStack<T> {
    /// Creates an empty stack.
    pub fn new() -> Self {
        LockedStack { items: Mutex::new(Vec::new()) }
    }

    /// Pushes `value`.
    pub fn push(&self, value: T) {
        self.items.lock().push(value);
    }

    /// Pops the most recent item.
    pub fn pop(&self) -> Option<T> {
        self.items.lock().pop()
    }

    /// Exact number of resident items.
    pub fn len(&self) -> usize {
        self.items.lock().len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.items.lock().is_empty()
    }
}

impl<T> Default for LockedStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for LockedStack<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockedStack").field("len", &self.len()).finish()
    }
}

/// Stateless handle to a [`LockedStack`].
#[derive(Debug)]
pub struct LockedHandle<'s, T> {
    stack: &'s LockedStack<T>,
}

impl<T: Send> OpsHandle<T> for LockedHandle<'_, T> {
    fn produce(&mut self, value: T) {
        self.stack.push(value);
    }

    fn consume(&mut self) -> Option<T> {
        self.stack.pop()
    }
}

impl<T: Send> RelaxedOps<T> for LockedStack<T> {
    type Handle<'a>
        = LockedHandle<'a, T>
    where
        T: 'a;

    fn ops_handle(&self) -> Self::Handle<'_> {
        LockedHandle { stack: self }
    }

    fn name(&self) -> &'static str {
        "locked"
    }

    fn relaxation_bound(&self) -> Option<usize> {
        Some(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let s = LockedStack::new();
        for i in 0..100 {
            s.push(i);
        }
        for i in (0..100).rev() {
            assert_eq!(s.pop(), Some(i));
        }
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn len_tracks() {
        let s = LockedStack::new();
        assert!(s.is_empty());
        s.push(1);
        s.push(2);
        assert_eq!(s.len(), 2);
        s.pop();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn trait_metadata() {
        let s: LockedStack<u8> = LockedStack::new();
        assert_eq!(RelaxedOps::<u8>::name(&s), "locked");
        assert_eq!(RelaxedOps::<u8>::relaxation_bound(&s), Some(0));
    }
}
