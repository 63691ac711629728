package sql

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary input through the SQL front end and checks
// the parser's safety properties: it never panics (errors must surface
// as errors), for every accepted query the renderer is a fixed point —
// render(parse(q)) must re-parse successfully and render to the
// identical string — and so is the fingerprint: parse(render(q)) has
// q's. The last two are what the engine's plan cache relies on: the
// fingerprint is the cache key, so a render that loses or reorders
// syntax would alias distinct queries.
func FuzzParse(f *testing.F) {
	seeds := []string{
		// From parser_test.go round-trip and clause-coverage cases.
		`select a, b c from t where a > 5 order by a desc limit 3 offset 1`,
		`select * from a left outer many to one join b on a.x = b.y`,
		`select * from r left outer case join s on r.a = s.b`,
		`select * from r inner many to exact one join s on r.a = s.b`,
		`select 1 bid, id from x union all select 2 bid, id from y`,
		`select distinct a from t group by a having count(*) > 1`,
		`select t.* , u.c from t inner join u on t.a = u.a`,
		`select case when a = 1 then 'x' else 'y' end from t`,
		`select allow_precision_loss(sum(round(p * 1.1, 2))) from t`,
		`select a from (select a from t where a in (1,2)) q`,
		`select coalesce(a, b, 0), a is not null from t`,
		`select a from t where exists (select 1 from u where u.a = t.a)`,
		`select a from t where a not in (select b from u where b > 3)`,
		`select a, b.c as x, count(*) from t1 b where a > 5 and b.c = 'v' group by a having count(*) > 1 order by a desc limit 10 offset 2`,
		`select * from a inner join b on a.x = b.y left outer join c on b.z = c.z cross join d`,
		`select a from t union all select a from u order by a limit 3`,
		`select "Weird Name", 'it''s', 12.5 from t -- comment
			/* block */`,
		// Statements beyond queries (docs/DIALECT.md examples).
		`create table customer (id bigint primary key, name varchar(40) not null, country varchar(2))`,
		`create table salesorder (id bigint primary key, customer_id bigint references customer, amount decimal(12,2), qty bigint, product_id bigint, foreign key (product_id) references product (id))`,
		`create view OrderWithCustomer as select o.id, c.name from salesorder o inner many to one join customer c on o.customer_id = c.id`,
		`create view OrderFacts as select id, amount, qty from salesorder with expression macros (amount / qty as unit_price, case when amount > 100 then 'L' else 'S' end as bucket)`,
		`insert into customer values (1, 'Ada', 'DE'), (2, 'Grace', 'US')`,
		`insert into product (id, name, category, price) values (10, 'Bolt', 'HW', 0.10)`,
		`update product set price = 10.99 where id = 10`,
		`delete from salesorder where id = 104`,
		`drop table customer`,
		`select country, count(*) n, sum(amount) total from AllOrders group by country order by total desc`,
		// Deeply nested inputs pin the ErrTooDeep recursion guard: past
		// MaxNestingDepth these must error, not overflow the stack.
		"select " + strings.Repeat("(", 3000) + "1" + strings.Repeat(")", 3000),
		"select " + strings.Repeat("not ", 3000) + "true" + " from t",
		"select " + strings.Repeat("- ", 3000) + "1",
		// Malformed inputs keep the error paths covered.
		`select`,
		`select a from t where`,
		`insert into t values (1`,
		`select case end`,
		`'unterminated`,
		"se^lect",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		if err != nil {
			return // rejected input: fine, as long as we did not panic
		}
		q, ok := st.(*Query)
		if !ok {
			return // non-query statements have no renderer to round-trip
		}
		r1 := RenderQuery(q.Body)
		body2, err := ParseQuery(r1)
		if err != nil {
			t.Fatalf("rendered query does not re-parse\ninput:    %q\nrendered: %q\nerror:    %v", src, r1, err)
		}
		r2 := RenderQuery(body2)
		if r1 != r2 {
			t.Fatalf("render not a fixed point\ninput: %q\nr1:    %q\nr2:    %q", src, r1, r2)
		}
		f1, v1 := Fingerprint(q.Body)
		f2, v2 := Fingerprint(body2)
		if f1 != f2 || len(v1) != len(v2) {
			t.Fatalf("fingerprint not stable under render\ninput: %q\nf1:    %q\nf2:    %q", src, f1, f2)
		}
		for i := range v1 {
			if v1[i] != v2[i] {
				t.Fatalf("slot %d: %v then %v\ninput: %q", i, v1[i], v2[i], src)
			}
		}
	})
}
