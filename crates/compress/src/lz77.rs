//! Greedy hash-chain LZ77 matching with lazy evaluation (zlib-style).

/// One DEFLATE token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A literal byte.
    Literal(u8),
    /// A back-reference: copy `len` (3..=258) bytes from `dist`
    /// (1..=32768) bytes back.
    Match { len: u16, dist: u16 },
}

/// Maximum match length allowed by DEFLATE.
pub const MAX_MATCH: usize = 258;
/// Minimum match length worth encoding.
pub const MIN_MATCH: usize = 3;
/// Sliding window size.
pub const WINDOW: usize = 32 * 1024;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

#[inline]
fn hash3(b: &[u8; 3]) -> usize {
    let v = (b[0] as u32) | ((b[1] as u32) << 8) | ((b[2] as u32) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of two equally long slices, eight bytes
/// at a time.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let (a_words, a_tail) = a.as_chunks::<8>();
    let (b_words, b_tail) = b.as_chunks::<8>();
    for (k, (x, y)) in a_words.iter().zip(b_words).enumerate() {
        let diff = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
        if diff != 0 {
            return k * 8 + (diff.trailing_zeros() / 8) as usize;
        }
    }
    let tail = a_tail
        .iter()
        .zip(b_tail)
        .take_while(|(x, y)| x == y)
        .count();
    a_words.len() * 8 + tail
}

/// A zeroed table, allocated on the heap directly.
fn zeroed<T: Copy + Default, const N: usize>() -> Box<[T; N]> {
    // The conversion cannot fail: the slice has N elements.
    vec![T::default(); N]
        .into_boxed_slice()
        .try_into()
        .unwrap_or_else(|_| Box::new([T::default(); N]))
}

/// Hash-chain matcher over one input, handing out its tokens a block
/// at a time so that no caller has to hold them all.
///
/// `head[h]` is the most recent position with hash `h`, stored +1 so 0
/// means "none". `prev` links a position to the previous one with the
/// same hash, as the distance back to it (saturated: anything from
/// `WINDOW` up, "none" included, ends a search). A search only follows
/// links of positions inside the window, so `prev` is a ring of
/// `WINDOW` slots: the slot of position `c` is not reused before
/// position `c + WINDOW` is entered, by which time `c` is out of every
/// window. Both tables together are 192 KiB whatever the input size.
pub struct Matcher<'a> {
    data: &'a [u8],
    head: Box<[u32; HASH_SIZE]>,
    prev: Box<[u16; WINDOW]>,
    max_chain: usize,
    good_enough: usize,
    lazy: bool,
    /// Next position to tokenize.
    pos: usize,
    /// The second token of a lazy step that did not fit the last block.
    held: Option<Token>,
}

impl<'a> Matcher<'a> {
    /// Starts tokenizing `data`.
    ///
    /// `max_chain` bounds positions examined per attempt (0 disables
    /// matching entirely), `good_enough` stops the search once a match
    /// of that length is found, and `lazy` enables one-byte deferral
    /// when the next position has a longer match.
    pub fn new(data: &'a [u8], max_chain: usize, good_enough: usize, lazy: bool) -> Self {
        Matcher {
            data,
            head: zeroed(),
            prev: zeroed(),
            max_chain,
            good_enough,
            lazy,
            pos: 0,
            held: None,
        }
    }

    /// Whether every token has been handed out.
    pub fn is_done(&self) -> bool {
        self.pos >= self.data.len() && self.held.is_none()
    }

    /// The first input byte that no token handed out so far stands for.
    pub(crate) fn position(&self) -> usize {
        match self.held {
            Some(Token::Match { len, .. }) => self.pos - len as usize,
            Some(Token::Literal(_)) => self.pos - 1,
            None => self.pos,
        }
    }

    /// Moves [`position`](Self::position) on by `len` bytes (to the end
    /// of the input at most) without searching them: they are entered
    /// into the chains, so a later match can still reach back into them,
    /// but get no tokens. A held lazy token is dropped; its bytes were
    /// entered when it was found, and the move never stops short of them.
    ///
    /// Every position is entered whether it is searched or skipped, so
    /// the chains at a position do not depend on how the matcher got
    /// there, and a search after a skip finds what it would have found.
    pub(crate) fn skip(&mut self, len: usize) {
        let to = self.position().saturating_add(len).min(self.data.len());
        self.held = None;
        // `Fastest` never reads its chains.
        if self.max_chain > 0 {
            self.insert(self.pos, to);
        }
        self.pos = self.pos.max(to);
    }

    /// The hash of position `i` and the head of its chain, or `None`
    /// with fewer than three bytes left to hash.
    #[inline]
    fn chain_of(&self, i: usize) -> Option<(usize, u32)> {
        let hash = hash3(self.data.get(i..)?.first_chunk()?);
        Some((hash, self.head[hash]))
    }

    /// Makes position `i`, whose hash is `hash`, the head of its chain.
    #[inline]
    fn link(&mut self, i: usize, hash: usize) {
        let head = &mut self.head[hash];
        // An empty head reads as position -1: out of every window.
        self.prev[i % WINDOW] = (i + 1 - *head as usize).min(u16::MAX as usize) as u16;
        *head = (i + 1) as u32;
    }

    /// Enters positions `from..to` into the chains (those with three
    /// bytes left to hash).
    #[inline]
    fn insert(&mut self, from: usize, to: usize) {
        let to = to.min(self.data.len().saturating_sub(MIN_MATCH - 1));
        if from >= to {
            return;
        }
        let windows = self.data[from..to + (MIN_MATCH - 1)].array_windows::<3>();
        for (i, w) in (from..to).zip(windows) {
            self.link(i, hash3(w));
        }
    }

    /// The longest match for position `i` that is longer than `floor`,
    /// as `(len, dist)`, or `(0, 0)`: the first such in chain order from
    /// `head` (the head of `i`'s chain), searching at most `max_chain`
    /// candidates and stopping at one `good_enough` long.
    ///
    /// This is the matcher's identity rule: a candidate replaces the
    /// best so far only when strictly longer, so which candidate wins a
    /// tie, and where the search stops, depend only on chain order and
    /// on each candidate's exact match length. A speed change may skip
    /// work whose outcome is known — a candidate that differs anywhere
    /// in its first `best_len + 1` bytes cannot be strictly longer —
    /// but may not change a token. `floor` is such a skip: the caller
    /// promises that no candidate of length `<= floor` would have
    /// stopped the search (`floor < good_enough`, or 0) and that it
    /// ignores results that short.
    #[inline]
    fn best_match(&self, i: usize, head: u32, floor: usize) -> (usize, usize) {
        let data = self.data;
        let max = MAX_MATCH.min(data.len() - i);
        if head == 0 || max < MIN_MATCH || floor >= max {
            return (0, 0);
        }
        debug_assert!(floor < self.good_enough.max(1));
        let here = &data[i..i + max];
        let mut c = head as usize - 1;
        let mut best_len = floor;
        let mut best_dist = 0;
        let window_floor = i.saturating_sub(WINDOW);
        for _ in 0..self.max_chain {
            if c < window_floor || c >= i {
                break;
            }
            // c < i, so c + max <= i + max <= data.len().
            let there = &data[c..c + max];
            // To be longer than the best so far a candidate has to
            // agree on byte `best_len` and all before it: look at the
            // eight that end there first, where long near-misses differ.
            let worth_measuring = match best_len.checked_sub(7) {
                Some(from) => there[from..=best_len] == here[from..=best_len],
                None => there[best_len] == here[best_len],
            };
            if worth_measuring {
                let l = common_prefix(there, here);
                if l > best_len {
                    best_len = l;
                    best_dist = i - c;
                    if l >= self.good_enough || l == max {
                        break;
                    }
                }
            }
            let back = self.prev[c % WINDOW] as usize;
            if back > c - window_floor {
                break;
            }
            c -= back;
        }
        if best_dist == 0 || best_len < MIN_MATCH {
            (0, 0)
        } else {
            (best_len, best_dist)
        }
    }

    /// Replaces the contents of `tokens` with the next `max` tokens
    /// (fewer at the end of the input).
    pub fn next_tokens(&mut self, tokens: &mut Vec<Token>, max: usize) {
        tokens.clear();
        tokens.extend(self.held.take());
        let (data, n) = (self.data, self.data.len());
        if n < MIN_MATCH || self.max_chain == 0 {
            let end = n.min(self.pos.saturating_add(max - tokens.len()));
            tokens.extend(data[self.pos..end].iter().map(|&b| Token::Literal(b)));
            self.pos = end;
            return;
        }
        // Matches shorter than MIN_MATCH are never emitted, so the
        // search may ignore them where they could not have ended it.
        let shortest = (MIN_MATCH - 1).min(self.good_enough.saturating_sub(1));
        let matched = |len: usize, dist: usize| Token::Match {
            len: len as u16,
            dist: dist as u16,
        };

        let mut i = self.pos;
        let mut chain = self.chain_of(i);
        while i < n && tokens.len() < max {
            let Some((hash, head)) = chain else {
                // Too close to the end to hash, let alone match.
                tokens.push(Token::Literal(data[i]));
                i += 1;
                continue;
            };
            // The next position's chain head is loaded before this
            // position is searched: the search ends on branches no
            // predictor gets right, and a load issued after them waits
            // out the whole miss. Linking `i` below is the only write
            // in between, and it changes the entry of `hash` alone.
            let next_chain = self
                .chain_of(i + 1)
                .map(|(h, head)| (h, if h == hash { (i + 1) as u32 } else { head }));

            let (len, dist) = self.best_match(i, head, shortest);
            if len == 0 {
                tokens.push(Token::Literal(data[i]));
                self.link(i, hash);
                chain = next_chain;
                i += 1;
                continue;
            }
            if self.lazy && i + 1 < n {
                // Peek at the next position: if it has a strictly
                // longer match, emit this byte as a literal instead.
                // Only a longer one matters, so the search may skip
                // what cannot beat `len` — unless a match that short
                // could end it early.
                self.link(i, hash);
                let floor = if len < self.good_enough {
                    len
                } else {
                    shortest
                };
                let (next_len, next_dist) = match next_chain {
                    Some((_, head)) => self.best_match(i + 1, head, floor),
                    None => (0, 0),
                };
                if next_len > len {
                    tokens.push(Token::Literal(data[i]));
                    if tokens.len() < max {
                        tokens.push(matched(next_len, next_dist));
                    } else {
                        self.held = Some(matched(next_len, next_dist));
                    }
                    self.insert(i + 1, i + 1 + next_len);
                    i += 1 + next_len;
                } else {
                    tokens.push(matched(len, dist));
                    self.insert(i + 1, i + len);
                    i += len;
                }
            } else {
                tokens.push(matched(len, dist));
                self.insert(i, i + len);
                i += len;
            }
            chain = self.chain_of(i);
        }
        self.pos = i;
    }
}

/// Tokenizes all of `data` at once; see [`Matcher::new`] for the
/// parameters.
pub fn tokenize(data: &[u8], max_chain: usize, good_enough: usize, lazy: bool) -> Vec<Token> {
    let mut matcher = Matcher::new(data, max_chain, good_enough, lazy);
    let mut tokens = Vec::new();
    matcher.next_tokens(&mut tokens, usize::MAX);
    tokens
}

/// Expands tokens back to bytes (reference decoder used by tests).
pub fn expand(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let start = out.len() - dist as usize;
                for k in 0..len as usize {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8], chain: usize, lazy: bool) {
        let toks = tokenize(data, chain, 64, lazy);
        assert_eq!(expand(&toks), data);
    }

    #[test]
    fn literal_only_when_disabled() {
        let toks = tokenize(b"abcabcabc", 0, 8, false);
        assert_eq!(toks.len(), 9);
        assert!(toks.iter().all(|t| matches!(t, Token::Literal(_))));
    }

    #[test]
    fn finds_repeats() {
        let toks = tokenize(b"abcabcabcabc", 128, 64, false);
        assert!(toks.iter().any(|t| matches!(t, Token::Match { .. })));
        assert_eq!(expand(&toks), b"abcabcabcabc");
    }

    #[test]
    fn overlapping_match_run() {
        // "aaaa..." should compress to one literal + one long match with
        // dist 1 (RLE via overlapping copy).
        let data = vec![b'a'; 300];
        let toks = tokenize(&data, 128, 258, false);
        assert_eq!(expand(&toks), data);
        assert!(
            matches!(toks[1], Token::Match { dist: 1, .. }),
            "{:?}",
            &toks[..3]
        );
    }

    #[test]
    fn random_data_roundtrips() {
        let data: Vec<u8> = (0..5000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        roundtrip(&data, 128, true);
        roundtrip(&data, 16, false);
    }

    #[test]
    fn text_like_data_roundtrips_with_lazy() {
        let data = b"the quick brown fox jumps over the lazy dog. \
                     the quick brown fox jumps over the lazy dog again."
            .repeat(20);
        roundtrip(&data, 1024, true);
        let toks = tokenize(&data, 1024, 258, true);
        let matched: usize = toks
            .iter()
            .map(|t| match t {
                Token::Match { len, .. } => *len as usize,
                _ => 0,
            })
            .sum();
        assert!(
            matched > data.len() / 2,
            "matched {matched} of {}",
            data.len()
        );
    }

    #[test]
    fn short_inputs() {
        roundtrip(b"", 128, true);
        roundtrip(b"a", 128, true);
        roundtrip(b"ab", 128, true);
        roundtrip(b"abc", 128, true);
    }

    #[test]
    fn common_prefix_counts_across_words_and_tail() {
        let a: Vec<u8> = (0..40u8).collect();
        for cut in 0..=40 {
            let mut b = a.clone();
            if cut < 40 {
                b[cut] ^= 0x80;
            }
            assert_eq!(common_prefix(&a, &b), cut);
        }
    }

    #[test]
    fn match_length_caps_at_max() {
        let data = vec![b'x'; 1000];
        let toks = tokenize(&data, 16, 258, false);
        assert_eq!(
            toks[1],
            Token::Match {
                len: MAX_MATCH as u16,
                dist: 1
            }
        );
    }
}
