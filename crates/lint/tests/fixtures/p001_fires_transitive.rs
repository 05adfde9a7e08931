// Fixture: P001 must fire at the leaf — a panic two calls below a pub
// entry point is reported where it stands, not at the entry.

fn panic_site(v: &[u32]) -> u32 {
    *v.first().unwrap() // P001: the concrete panic site
}

fn leaf(v: &[u32]) -> u32 {
    v[0].wrapping_add(panic_site(v))
}

pub fn entry(v: &[u32]) -> u32 {
    leaf(v)
}
