//! A 5×7 bitmap font for digits and capital letters — the stroke source
//! for the synthetic character datasets.

/// Number of columns in a glyph.
pub(crate) const GLYPH_W: usize = 5;
/// Number of rows in a glyph.
pub(crate) const GLYPH_H: usize = 7;

/// The 36 glyph classes: digits `0`–`9` then letters `A`–`Z`.
pub(crate) const CLASS_COUNT: usize = 36;

#[rustfmt::skip]
const FONT: [[&str; GLYPH_H]; CLASS_COUNT] = [
    // 0-9
    ["01110","10001","10011","10101","11001","10001","01110"],
    ["00100","01100","00100","00100","00100","00100","01110"],
    ["01110","10001","00001","00110","01000","10000","11111"],
    ["01110","10001","00001","00110","00001","10001","01110"],
    ["00010","00110","01010","10010","11111","00010","00010"],
    ["11111","10000","11110","00001","00001","10001","01110"],
    ["01110","10000","10000","11110","10001","10001","01110"],
    ["11111","00001","00010","00100","01000","01000","01000"],
    ["01110","10001","10001","01110","10001","10001","01110"],
    ["01110","10001","10001","01111","00001","00001","01110"],
    // A-Z
    ["01110","10001","10001","11111","10001","10001","10001"],
    ["11110","10001","10001","11110","10001","10001","11110"],
    ["01110","10001","10000","10000","10000","10001","01110"],
    ["11110","10001","10001","10001","10001","10001","11110"],
    ["11111","10000","10000","11110","10000","10000","11111"],
    ["11111","10000","10000","11110","10000","10000","10000"],
    ["01110","10001","10000","10111","10001","10001","01111"],
    ["10001","10001","10001","11111","10001","10001","10001"],
    ["01110","00100","00100","00100","00100","00100","01110"],
    ["00111","00010","00010","00010","00010","10010","01100"],
    ["10001","10010","10100","11000","10100","10010","10001"],
    ["10000","10000","10000","10000","10000","10000","11111"],
    ["10001","11011","10101","10101","10001","10001","10001"],
    ["10001","11001","10101","10011","10001","10001","10001"],
    ["01110","10001","10001","10001","10001","10001","01110"],
    ["11110","10001","10001","11110","10000","10000","10000"],
    ["01110","10001","10001","10001","10101","10010","01101"],
    ["11110","10001","10001","11110","10100","10010","10001"],
    ["01111","10000","10000","01110","00001","00001","11110"],
    ["11111","00100","00100","00100","00100","00100","00100"],
    ["10001","10001","10001","10001","10001","10001","01110"],
    ["10001","10001","10001","10001","10001","01010","00100"],
    ["10001","10001","10001","10101","10101","11011","10001"],
    ["10001","10001","01010","00100","01010","10001","10001"],
    ["10001","10001","01010","00100","00100","00100","00100"],
    ["11111","00001","00010","00100","01000","10000","11111"],
];

/// Returns the bitmap for class `class` (0–9 digits, 10–35 letters A–Z):
/// `bitmap(class)[row][col]` is `true` where the glyph has ink.
///
/// # Panics
///
/// Panics if `class >= 36`.
pub(crate) fn bitmap(class: usize) -> [[bool; GLYPH_W]; GLYPH_H] {
    assert!(class < CLASS_COUNT, "glyph class out of range");
    let mut out = [[false; GLYPH_W]; GLYPH_H];
    for (r, row) in FONT[class].iter().enumerate() {
        for (c, ch) in row.bytes().enumerate() {
            out[r][c] = ch == b'1';
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The display character of a glyph class.
    fn class_char(class: usize) -> char {
        assert!(class < CLASS_COUNT, "glyph class out of range");
        if class < 10 {
            (b'0' + class as u8) as char
        } else {
            (b'A' + (class - 10) as u8) as char
        }
    }

    #[test]
    fn every_glyph_is_well_formed() {
        for (class, font) in FONT.iter().enumerate().take(CLASS_COUNT) {
            for row in *font {
                assert_eq!(row.len(), GLYPH_W, "class {class}");
                assert!(row.bytes().all(|b| b == b'0' || b == b'1'));
            }
            let bm = bitmap(class);
            let ink: usize = bm.iter().flatten().filter(|&&b| b).count();
            assert!(ink >= 7, "class {class} ({}) too sparse", class_char(class));
        }
    }

    #[test]
    fn glyphs_are_pairwise_distinct() {
        for a in 0..CLASS_COUNT {
            for b in (a + 1)..CLASS_COUNT {
                assert_ne!(
                    bitmap(a),
                    bitmap(b),
                    "classes {} and {} share a bitmap",
                    class_char(a),
                    class_char(b)
                );
            }
        }
    }
}
