// Fixture: a reason-less suppression is itself a violation (S001) and does
// NOT silence the underlying rule.

pub fn unjustified(link: &LinkModel) -> f64 {
    link.transfer_time(1 << 20) // lint:allow(A002)
}

pub fn wrong_rule(link: &LinkModel) -> f64 {
    // lint:allow(R003) suppressing a rule that is not the one firing here
    link.transfer_time(1 << 20)
}
