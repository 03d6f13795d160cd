//! Name lookup in the cell and message tables of a program.

use std::collections::{HashMap, HashSet};

/// Tables of up to this many names are scanned: comparing a few dozen
/// short names costs less than hashing them and building a map.
const SCAN_LIMIT: usize = 64;

/// Finds a name in a declaration table in O(1), however large the table.
///
/// The table stays with its owner, which passes its names in order.
/// While it holds at most [`SCAN_LIMIT`] names, lookups scan it. Past
/// that, a hash map answers instead. The map uses `RandomState`, so
/// crafted names cannot force collisions. The first of equal names wins,
/// as in a scan.
#[derive(Clone, Debug, Default)]
pub(crate) struct NameIndex {
    hashed: Option<HashMap<String, u32>>,
}

impl NameIndex {
    /// An index over a whole table.
    pub(crate) fn over<'a>(table: impl ExactSizeIterator<Item = &'a str>) -> Self {
        if table.len() <= SCAN_LIMIT {
            return NameIndex::default();
        }
        let mut map = HashMap::with_capacity(table.len());
        for (i, name) in table.enumerate() {
            map.entry(name.to_owned()).or_insert(i as u32);
        }
        NameIndex { hashed: Some(map) }
    }

    /// The position of the first name in `table` equal to `name`.
    pub(crate) fn find<'a>(
        &self,
        mut table: impl Iterator<Item = &'a str>,
        name: &str,
    ) -> Option<u32> {
        match &self.hashed {
            Some(map) => map.get(name).copied(),
            None => table.position(|n| n == name).map(|i| i as u32),
        }
    }

    /// Notes that `name` was appended to the table at `index`. `table` is
    /// the whole table, `name` included; it is read only when the table
    /// outgrows scanning.
    pub(crate) fn push<'a>(
        &mut self,
        name: &str,
        index: u32,
        table: impl ExactSizeIterator<Item = &'a str>,
    ) {
        match &mut self.hashed {
            Some(map) => {
                map.entry(name.to_owned()).or_insert(index);
            }
            None if index as usize >= SCAN_LIMIT => *self = NameIndex::over(table),
            None => {}
        }
    }
}

/// The position of the first name in `table` that repeats an earlier
/// one: a scan of the names before it while the table is small, one pass
/// through a hash set past [`SCAN_LIMIT`].
pub(crate) fn first_repeat<'a>(
    mut table: impl ExactSizeIterator<Item = &'a str> + Clone,
) -> Option<usize> {
    if table.len() <= SCAN_LIMIT {
        return table
            .clone()
            .enumerate()
            .position(|(i, name)| table.clone().take(i).any(|n| n == name));
    }
    let mut seen = HashSet::with_capacity(table.len());
    table.position(|name| !seen.insert(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanned_and_hashed_lookups_agree() {
        let names: Vec<String> = (0..2 * SCAN_LIMIT)
            .map(|i| format!("n{}", i % (SCAN_LIMIT + 10)))
            .collect();
        let mut index = NameIndex::default();
        for (i, name) in names.iter().enumerate() {
            index.push(name, i as u32, names[..=i].iter().map(String::as_str));
            let table = || names[..=i].iter().map(String::as_str);
            assert_eq!(index.hashed.is_some(), i >= SCAN_LIMIT);
            for probe in ["n0", "n7", "n70", "missing"] {
                let scanned = table().position(|n| n == probe).map(|p| p as u32);
                assert_eq!(index.find(table(), probe), scanned, "{probe} after {i}");
            }
        }
        let rebuilt = NameIndex::over(names.iter().map(String::as_str));
        assert_eq!(rebuilt.find(std::iter::empty(), "n5"), Some(5));
    }

    #[test]
    fn first_repeat_scans_and_hashes_alike() {
        for len in [3, SCAN_LIMIT, SCAN_LIMIT + 1, 3 * SCAN_LIMIT] {
            let mut names: Vec<String> = (0..len).map(|i| format!("n{i}")).collect();
            assert_eq!(first_repeat(names.iter().map(String::as_str)), None);
            names[len - 1] = "n1".to_owned();
            names.push("n0".to_owned());
            assert_eq!(
                first_repeat(names.iter().map(String::as_str)),
                Some(len - 1)
            );
        }
    }
}
