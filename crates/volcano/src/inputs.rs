//! At most two inputs, stored inline.
//!
//! No operator of a searched algebra takes more than two inputs, so an
//! expression's children, its dedup key, a candidate's input goals and a
//! rewrite node's operands are each one [`Inputs`] value: no heap
//! allocation per expression, key, candidate or rewrite.

use crate::memo::GroupId;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Zero, one or two values, inline; derefs to the slice of them. Built by
/// [`Inputs::none`], [`Inputs::one`], [`Inputs::two`] or from an array of
/// up to two; a wider slice is refused with [`TooManyInputs`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inputs<T = GroupId>(Arity<T>);

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Arity<T> {
    Zero,
    One([T; 1]),
    Two([T; 2]),
}

/// The refusal of a slice wider than two: its length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooManyInputs(pub usize);

impl fmt::Display for TooManyInputs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} inputs: an operator takes at most two", self.0)
    }
}

impl std::error::Error for TooManyInputs {}

impl<T> Inputs<T> {
    /// No input.
    pub const fn none() -> Self {
        Inputs(Arity::Zero)
    }

    /// One input.
    pub const fn one(a: T) -> Self {
        Inputs(Arity::One([a]))
    }

    /// Two inputs, in order.
    pub const fn two(a: T, b: T) -> Self {
        Inputs(Arity::Two([a, b]))
    }

    /// The same arity over `f` of each value, applied in order.
    pub fn map<U>(self, mut f: impl FnMut(T) -> U) -> Inputs<U> {
        Inputs(match self.0 {
            Arity::Zero => Arity::Zero,
            Arity::One([a]) => Arity::One([f(a)]),
            Arity::Two([a, b]) => Arity::Two([f(a), f(b)]),
        })
    }

    /// [`map`](Self::map) with a fallible `f`: the first error, if any.
    pub fn try_map<U, E>(self, mut f: impl FnMut(T) -> Result<U, E>) -> Result<Inputs<U>, E> {
        Ok(Inputs(match self.0 {
            Arity::Zero => Arity::Zero,
            Arity::One([a]) => Arity::One([f(a)?]),
            Arity::Two([a, b]) => Arity::Two([f(a)?, f(b)?]),
        }))
    }

    /// References to the values, in the same shape.
    pub fn each_ref(&self) -> Inputs<&T> {
        Inputs(match &self.0 {
            Arity::Zero => Arity::Zero,
            Arity::One([a]) => Arity::One([a]),
            Arity::Two([a, b]) => Arity::Two([a, b]),
        })
    }
}

impl<T> Deref for Inputs<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match &self.0 {
            Arity::Zero => &[],
            Arity::One(a) => a,
            Arity::Two(a) => a,
        }
    }
}

impl<T> DerefMut for Inputs<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Arity::Zero => &mut [],
            Arity::One(a) => a,
            Arity::Two(a) => a,
        }
    }
}

impl<'a, T> IntoIterator for &'a Inputs<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: fmt::Debug> fmt::Debug for Inputs<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> From<[T; 0]> for Inputs<T> {
    fn from(_: [T; 0]) -> Self {
        Self::none()
    }
}

impl<T> From<[T; 1]> for Inputs<T> {
    fn from([a]: [T; 1]) -> Self {
        Self::one(a)
    }
}

impl<T> From<[T; 2]> for Inputs<T> {
    fn from([a, b]: [T; 2]) -> Self {
        Self::two(a, b)
    }
}

impl<'a, T> TryFrom<&'a [T]> for Inputs<&'a T> {
    type Error = TooManyInputs;
    fn try_from(items: &'a [T]) -> Result<Self, TooManyInputs> {
        match items {
            [] => Ok(Inputs::none()),
            [a] => Ok(Inputs::one(a)),
            [a, b] => Ok(Inputs::two(a, b)),
            wider => Err(TooManyInputs(wider.len())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_is_part_of_equality_and_hash() {
        use std::hash::{BuildHasher, RandomState};
        let state = RandomState::new();
        let hash = |x: &Inputs<u32>| state.hash_one(x);
        let shapes = [Inputs::none(), Inputs::one(7), Inputs::two(7, 7)];
        for (i, x) in shapes.iter().enumerate() {
            for (j, y) in shapes.iter().enumerate() {
                assert_eq!(x == y, i == j);
            }
            assert_eq!(x.len(), i);
            assert!(x.iter().all(|&v| v == 7));
        }
        assert_eq!(hash(&Inputs::two(1, 2)), hash(&[1, 2].into()));
        assert_eq!(
            format!("{:?}", Inputs::two(1, 2)),
            format!("{:?}", vec![1, 2])
        );
    }

    #[test]
    fn a_wider_slice_is_refused_and_the_rest_convert() {
        let items = [10, 20, 30];
        for n in 0..=2 {
            let inputs = Inputs::try_from(&items[..n]).expect("at most two");
            assert_eq!(inputs.map(|&v| v)[..], items[..n]);
        }
        assert_eq!(Inputs::try_from(&items[..]), Err(TooManyInputs(3)));
        let mut seen = Vec::new();
        let doubled = Inputs::two(1, 2).map(|v| {
            seen.push(v);
            v * 2
        });
        assert_eq!((doubled[..].to_vec(), seen), (vec![2, 4], vec![1, 2]));
        assert_eq!(
            Inputs::two(1, 2).try_map(|v| (v < 2).then_some(v).ok_or(v)),
            Err(2)
        );
    }
}
